"""Figure 6: unidirectional verbs bandwidth.

Paper anchors: UD Write-Record +188.8 % over RC RDMA Write at 1 KB and
+256 % at 512 KB; UD send/recv up to +193 % over RC send/recv (small
messages) and +33.4 % at 256 KB; software-stack peak ~235-250 MB/s.
"""

from conftest import RESULTS_DIR, run_once

from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import print_table, save_json

MODES = ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")
SIZES = (1024, 4096, 16384, 65536, 262144, 524288, 1048576)


def _messages_for(size: int) -> int:
    return max(30, min(1000, (4 << 20) // size))


def _sweep():
    data = {}
    for mode in MODES:
        data[mode] = {}
        for size in SIZES:
            pair = VerbsEndpointPair.build(mode)
            out = pair.bandwidth_mbs(size, messages=_messages_for(size))
            data[mode][size] = round(out["mbs"], 1)
    return data


def test_fig06_unidirectional_bandwidth(benchmark):
    data = run_once(benchmark, _sweep)
    rows = [[f"{s}B"] + [data[m][s] for m in MODES] for s in SIZES]
    print_table("Fig. 6 unidirectional bandwidth (MB/s)", ["size"] + list(MODES), rows)

    ratios = {
        "wrr_vs_rcw_512K": round(data["ud_write_record"][524288]
                                 / data["rc_rdma_write"][524288], 2),
        "wrr_vs_rcw_1K": round(data["ud_write_record"][1024]
                               / data["rc_rdma_write"][1024], 2),
        "udsr_vs_rcsr_256K": round(data["ud_sendrecv"][262144]
                                   / data["rc_sendrecv"][262144], 2),
        "udsr_vs_rcsr_1K": round(data["ud_sendrecv"][1024]
                                 / data["rc_sendrecv"][1024], 2),
    }
    print("ratios:", ratios,
          "(paper: 512K WRR/RCW 3.56; 1K WRR/RCW 2.89; 256K s/r 1.33; 1K s/r 2.93)")
    save_json(RESULTS_DIR / "fig06_bandwidth.json", {"series": data, "ratios": ratios})

    # Shape assertions (who wins, roughly by how much).
    assert ratios["wrr_vs_rcw_512K"] > 2.5          # paper 3.56
    assert ratios["udsr_vs_rcsr_256K"] > 1.05       # paper 1.33
    assert ratios["wrr_vs_rcw_1K"] > 1.3            # paper 2.89
    assert 200 < data["ud_write_record"][1048576] < 300   # CPU-bound peak
    for s in SIZES:
        assert data["ud_write_record"][s] >= 0.9 * data["ud_sendrecv"][s]
        assert data["rc_rdma_write"][s] < data["rc_sendrecv"][s]
