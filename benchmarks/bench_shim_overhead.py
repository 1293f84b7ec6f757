"""§VI.B.2 (text result): socket-shim overhead over native UDP.

The paper measures "the most network intensive task available during
video streaming, the pre-buffering required before beginning playback"
with a live (bitrate-paced) stream and finds "a very minimal approximate
2 % increase" for the shim + software iWARP over the native UDP stack.
"""

from conftest import RESULTS_DIR, run_once

from repro.apps.streaming import MediaSource, StreamingClient, StreamingServer
from repro.bench.report import print_table, save_json
from repro.core.socketif import IwSocketInterface, NativeSocketApi
from repro.core.verbs import RnicDevice
from repro.simnet.engine import SEC
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks


def _paced_session(native: bool) -> float:
    tb = build_testbed()
    nets = install_stacks(tb)
    if native:
        api_s, api_c = NativeSocketApi(nets[0]), NativeSocketApi(nets[1])
    else:
        devs = [RnicDevice(n) for n in nets]
        api_s = IwSocketInterface(devs[0], pool_slots=64, pool_slot_bytes=4096)
        api_c = IwSocketInterface(devs[1], pool_slots=64, pool_slot_bytes=65536)
    media = MediaSource(bitrate_bps=16e6, duration_s=30)
    server = StreamingServer(api_s, tb.hosts[0], 5004, media, "udp", paced=True)
    server.start()
    client = StreamingClient(api_c, tb.hosts[1], (0, 5004), media, "udp",
                             prebuffer_bytes=1 << 20)
    proc = client.run()
    tb.sim.run_until(proc.finished, limit=600 * SEC)
    assert not client.failed
    return client.buffering_time_ms


def test_shim_overhead_over_native_udp(benchmark):
    def run():
        native = _paced_session(native=True)
        shim = _paced_session(native=False)
        return {
            "native_ms": round(native, 2),
            "shim_ms": round(shim, 2),
            "overhead_percent": round(100 * (shim / native - 1), 2),
        }

    data = run_once(benchmark, run)
    print_table(
        "Shim overhead, bitrate-paced prebuffering",
        ["stack", "time (ms)"],
        [["native UDP", data["native_ms"]], ["iWARP shim", data["shim_ms"]]],
    )
    print(f"overhead: {data['overhead_percent']}% (paper: ~2%)")
    save_json(RESULTS_DIR / "shim_overhead.json", data)
    assert -1.0 < data["overhead_percent"] < 8.0
