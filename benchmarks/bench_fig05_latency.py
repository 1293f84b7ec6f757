"""Figure 5: verbs ping-pong latency (small / medium / large panels).

Paper anchors: UD send/recv and UD Write-Record ~27-28 us below 128 B,
RC ~33 us; UD ~18-24 % better up to 2 KB; RC send/recv slightly best in
the 16-64 KB band; UD wins again at >= 128 KB.
"""

from conftest import RESULTS_DIR, run_once

from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import print_table, save_json

MODES = ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")
SMALL = (1, 16, 64, 256, 1024)
MEDIUM = (2048, 8192, 16384, 32768, 65536)
LARGE = (131072, 262144, 524288, 1048576)


def _sweep(sizes, iters):
    data = {}
    for mode in MODES:
        data[mode] = {}
        for size in sizes:
            pair = VerbsEndpointPair.build(mode)
            data[mode][size] = round(
                pair.pingpong_latency_us(size, iters=iters, warmup=3), 2
            )
    return data


def _report(panel, data, sizes):
    rows = [
        [f"{s}B"] + [data[m][s] for m in MODES]
        for s in sizes
    ]
    print_table(
        f"Fig. 5 ({panel}) one-way latency (us)",
        ["size"] + list(MODES),
        rows,
    )


def test_fig05_small_panel(benchmark):
    data = run_once(benchmark, lambda: _sweep(SMALL, iters=20))
    _report("small", data, SMALL)
    save_json(RESULTS_DIR / "fig05_small.json", data)
    # Paper-shape assertions.
    assert 22 < data["ud_sendrecv"][64] < 32          # ~27-28 us
    assert 28 < data["rc_sendrecv"][64] < 40          # ~33 us
    for s in SMALL:
        assert data["ud_sendrecv"][s] < data["rc_sendrecv"][s]
        assert data["ud_write_record"][s] < data["rc_rdma_write"][s]


def test_fig05_medium_panel(benchmark):
    data = run_once(benchmark, lambda: _sweep(MEDIUM, iters=10))
    _report("medium", data, MEDIUM)
    save_json(RESULTS_DIR / "fig05_medium.json", data)
    # The crossover band: RC send/recv best at 16-64 KB.
    for s in (16384, 32768, 65536):
        assert data["rc_sendrecv"][s] < data["ud_sendrecv"][s]
    # UD still ahead at 2 KB.
    assert data["ud_sendrecv"][2048] < data["rc_sendrecv"][2048]


def test_fig05_large_panel(benchmark):
    data = run_once(benchmark, lambda: _sweep(LARGE, iters=5))
    _report("large", data, LARGE)
    save_json(RESULTS_DIR / "fig05_large.json", data)
    # UD (both ops) beats RC for every large size.
    for s in LARGE:
        assert data["ud_sendrecv"][s] < data["rc_sendrecv"][s]
        assert data["ud_write_record"][s] < data["rc_rdma_write"][s]
    # Write-Record is the best UD op at large sizes.
    assert data["ud_write_record"][1048576] <= data["ud_sendrecv"][1048576]
