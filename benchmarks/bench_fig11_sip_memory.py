"""Figure 11: SIP server memory-usage improvement, UD vs RC; claims 18
and 19 of ``repro.bench.claims``.

The improvement grows with concurrent calls; the socket-size-only
theory predicts more, the gap being UD's extra application bookkeeping.

100 and 1000 calls are measured live (full simulated call ramp against
the real server, with the memory meter counting actual object
lifetimes); live measurement provably equals the closed-form model (see
tests/apps/test_sip.py), so the 10 000-call point uses the closed form
to keep the benchmark fast.
"""

from conftest import run_once

from repro.apps.sip.workload import measure_memory
from repro.bench.claims import RESULTS_DIR, check
from repro.bench.report import save_json
from repro.memory.accounting import FootprintModel

LIVE_POINTS = (100, 1000)
MODEL_POINTS = (100, 1000, 10_000)


def test_fig11_sip_memory(benchmark):
    model = FootprintModel()

    def run():
        data = {"live": {}, "model": {}}
        for n in LIVE_POINTS:
            rc = measure_memory("rc", n)
            ud = measure_memory("ud", n)
            data["live"][n] = round(
                100 * (rc["high_water_bytes"] - ud["high_water_bytes"])
                / rc["high_water_bytes"], 2,
            )
        for n in MODEL_POINTS:
            data["model"][n] = round(model.improvement_percent(n), 2)
        data["socket_only_percent"] = round(
            model.socket_only_improvement_percent(), 2
        )
        return data

    data = run_once(benchmark, run)
    save_json(RESULTS_DIR / "fig11_sip_memory.json", data)
    check("fig11")
