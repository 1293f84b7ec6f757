"""Figure 10: SIP request/response time under light load.

Paper anchors: UD ~0.35 ms, RC ~0.62 ms — a 43.1 % improvement
"attributed to the TCP overhead incurred" (per-call connection
establishment plus the heavier per-message path).
"""

from conftest import RESULTS_DIR, run_once

from repro.apps.sip.workload import measure_response_time
from repro.bench.report import print_table, save_json


def test_fig10_sip_response_time(benchmark):
    def run():
        ud = measure_response_time("ud", calls=15)
        rc = measure_response_time("rc", calls=15)
        return {
            "ud_ms": round(ud["mean_ms"], 3),
            "rc_ms": round(rc["mean_ms"], 3),
        }

    data = run_once(benchmark, run)
    improvement = 100 * (1 - data["ud_ms"] / data["rc_ms"])
    data["improvement_percent"] = round(improvement, 1)
    print_table(
        "Fig. 10 SIP response time",
        ["transport", "mean (ms)"],
        [["UD", data["ud_ms"]], ["RC", data["rc_ms"]]],
    )
    print(f"UD improvement: {improvement:.1f}% (paper: 43.1%; 0.35 vs 0.62 ms)")
    save_json(RESULTS_DIR / "fig10_sip_response.json", data)

    assert 0.25 < data["ud_ms"] < 0.50      # paper ~0.35 ms
    assert 0.45 < data["rc_ms"] < 0.80      # paper ~0.62 ms
    assert 30 < improvement < 55            # paper 43.1 %
