"""Figure 6: unidirectional verbs bandwidth; claims 7–10 of
``repro.bench.claims``."""

from conftest import run_once

from repro.bench.claims import RESULTS_DIR, VERBS_MODES, check
from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import save_json

SIZES = (1024, 4096, 16384, 65536, 262144, 524288, 1048576)


def _messages_for(size: int) -> int:
    return max(30, min(1000, (4 << 20) // size))


def _sweep():
    data = {}
    for mode in VERBS_MODES:
        data[mode] = {}
        for size in SIZES:
            pair = VerbsEndpointPair.build(mode)
            out = pair.bandwidth_mbs(size, messages=_messages_for(size))
            data[mode][size] = round(out["mbs"], 1)
    return data


def test_fig06_unidirectional_bandwidth(benchmark):
    data = run_once(benchmark, _sweep)

    def ratio(fast, slow, size):
        return round(data[fast][size] / data[slow][size], 2)

    ratios = {
        "wrr_vs_rcw_512K": ratio("ud_write_record", "rc_rdma_write", 524288),
        "wrr_vs_rcw_1K": ratio("ud_write_record", "rc_rdma_write", 1024),
        "udsr_vs_rcsr_256K": ratio("ud_sendrecv", "rc_sendrecv", 262144),
        "udsr_vs_rcsr_1K": ratio("ud_sendrecv", "rc_sendrecv", 1024),
    }
    save_json(RESULTS_DIR / "fig06_bandwidth.json", {"series": data, "ratios": ratios})
    check("fig06")
