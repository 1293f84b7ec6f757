"""Figure 9: VLC streaming initial buffering time, UD vs RC/HTTP;
claims 14 and 15 of ``repro.bench.claims``.

The paper attributes the gap "only partially" to the datagram-iWARP to
RC-iWARP difference (HTTP adds its own overhead).
"""

from conftest import buffering_ms, run_once

from repro.apps.streaming import MediaSource
from repro.bench.claims import RESULTS_DIR, check
from repro.bench.report import save_json

MEDIA = MediaSource(bitrate_bps=8e6, duration_s=60)
PREBUFFER = 2 << 20  # 2 MB prebuffer, an 8 Mb/s stream


def test_fig09_vlc_buffering(benchmark):
    def run():
        return {
            "ud_sendrecv_ms": round(buffering_ms("udp", MEDIA, PREBUFFER, rdma_mode=False), 1),
            "ud_write_record_ms": round(buffering_ms("udp", MEDIA, PREBUFFER), 1),
            "rc_http_ms": round(buffering_ms("http", MEDIA, PREBUFFER), 1),
        }

    data = run_once(benchmark, run)
    ud_best = min(data["ud_sendrecv_ms"], data["ud_write_record_ms"])
    data["improvement_percent"] = round(100 * (1 - ud_best / data["rc_http_ms"]), 1)
    save_json(RESULTS_DIR / "fig09_vlc.json", data)
    check("fig09")
