"""Figure 5: verbs ping-pong latency (small / medium / large panels);
claims 1–6 of ``repro.bench.claims``."""

from conftest import run_once

from repro.bench.claims import RESULTS_DIR, VERBS_MODES, check
from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import save_json

PANELS = {
    "small": ((1, 16, 64, 256, 1024), 20),
    "medium": ((2048, 8192, 16384, 32768, 65536), 10),
    "large": ((131072, 262144, 524288, 1048576), 5),
}


def _sweep(sizes, iters):
    data = {}
    for mode in VERBS_MODES:
        data[mode] = {}
        for size in sizes:
            pair = VerbsEndpointPair.build(mode)
            data[mode][size] = round(
                pair.pingpong_latency_us(size, iters=iters, warmup=3), 2
            )
    return data


def test_fig05_latency(benchmark):
    data = run_once(benchmark, lambda: {panel: _sweep(*PANELS[panel]) for panel in PANELS})
    for panel, panel_data in data.items():
        save_json(RESULTS_DIR / f"fig05_{panel}.json", panel_data)
    check("fig05")
