"""§VI.B.2 (text result): socket-shim overhead over native UDP; claim 16
of ``repro.bench.claims``.

The paper measures "the most network intensive task available during
video streaming, the pre-buffering required before beginning playback"
with a live (bitrate-paced) stream.
"""

from conftest import buffering_ms, run_once

from repro.apps.streaming import MediaSource
from repro.bench.claims import RESULTS_DIR, check
from repro.bench.report import save_json

MEDIA = MediaSource(bitrate_bps=16e6, duration_s=30)


def test_shim_overhead_over_native_udp(benchmark):
    def run():
        native = buffering_ms("udp", MEDIA, 1 << 20, native=True, paced=True)
        shim = buffering_ms("udp", MEDIA, 1 << 20, paced=True)
        return {
            "native_ms": round(native, 2),
            "shim_ms": round(shim, 2),
            "overhead_percent": round(100 * (shim / native - 1), 2),
        }

    data = run_once(benchmark, run)
    save_json(RESULTS_DIR / "shim_overhead.json", data)
    check("shim")
