"""Figure 10: SIP request/response time under light load; claim 17 of
``repro.bench.claims``.

The paper attributes UD's gain to "the TCP overhead incurred" (per-call
connection establishment plus the heavier per-message path).
"""

from conftest import run_once

from repro.apps.sip.workload import measure_response_time
from repro.bench.claims import RESULTS_DIR, check
from repro.bench.report import save_json


def test_fig10_sip_response_time(benchmark):
    def run():
        ud = measure_response_time("ud", calls=15)
        rc = measure_response_time("rc", calls=15)
        return {
            "ud_ms": round(ud["mean_ms"], 3),
            "rc_ms": round(rc["mean_ms"], 3),
        }

    data = run_once(benchmark, run)
    data["improvement_percent"] = round(100 * (1 - data["ud_ms"] / data["rc_ms"]), 1)
    save_json(RESULTS_DIR / "fig10_sip_response.json", data)
    check("fig10")
