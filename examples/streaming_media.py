#!/usr/bin/env python
"""Media-streaming scenario: VLC over the iWARP socket shim (Fig. 9).

An unmodified socket application — a VLC-like media server and client —
runs over the iWARP socket interface exactly as the paper's LD_PRELOAD
shim would run the real VLC.  The script compares initial buffering time
for:

* UDP streaming over UD iWARP (send/recv mode),
* UDP streaming over UD iWARP (RDMA Write-Record mode),
* HTTP-over-RC streaming,
* UDP streaming over the native kernel stack (shim-overhead reference).

Run:  python examples/streaming_media.py
"""

from repro.apps.streaming import MediaSource, StreamingClient, StreamingServer
from repro.core.socketif import IwSocketInterface, NativeSocketApi
from repro.core.verbs import RnicDevice
from repro.simnet import SEC, build_testbed
from repro.transport.stacks import install_stacks

PREBUFFER = 2 << 20  # 2 MB


def run_session(mode: str, rdma_mode: bool = True, native: bool = False,
                paced: bool = False):
    tb = build_testbed()
    nets = install_stacks(tb)
    media = MediaSource(bitrate_bps=8e6, duration_s=60)  # 8 Mb/s SD stream
    if native:
        api_server, api_client = NativeSocketApi(nets[0]), NativeSocketApi(nets[1])
    else:
        devs = [RnicDevice(n) for n in nets]
        api_server = IwSocketInterface(devs[0], rdma_mode=rdma_mode,
                                       pool_slots=64, pool_slot_bytes=4096)
        api_client = IwSocketInterface(devs[1], rdma_mode=rdma_mode,
                                       pool_slots=64, pool_slot_bytes=65536)
    server = StreamingServer(api_server, tb.hosts[0], 5004, media, mode, paced=paced)
    server.start()
    client = StreamingClient(api_client, tb.hosts[1], (0, 5004), media, mode,
                             prebuffer_bytes=PREBUFFER)
    proc = client.run()
    tb.sim.run_until(proc.finished, limit=600 * SEC)
    assert not client.failed, "streaming session failed"
    return client


def main() -> None:
    print(f"Prebuffering {PREBUFFER >> 20} MB of an 8 Mb/s stream "
          f"(cache fill at full transport speed):\n")
    rows = [
        ("UD iWARP, send/recv", run_session("udp", rdma_mode=False)),
        ("UD iWARP, Write-Record", run_session("udp", rdma_mode=True)),
        ("RC iWARP, HTTP", run_session("http")),
        ("native UDP (reference)", run_session("udp", native=True)),
    ]
    for label, client in rows:
        print(f"  {label:26s} {client.buffering_time_ms:8.1f} ms "
              f"({client.packets_received} reads)")
    ud = min(rows[0][1].buffering_time_ms, rows[1][1].buffering_time_ms)
    http = rows[2][1].buffering_time_ms
    print(f"\nUD vs RC/HTTP buffering-time improvement: "
          f"{100 * (1 - ud / http):.1f}%  (paper: claim 14 in EXPERIMENTS.md)")

    # Shim overhead is measured against a *paced* live stream (§VI.B.2).
    nat = run_session("udp", native=True, paced=True)
    shim = run_session("udp", rdma_mode=True, paced=True)
    print(f"shim overhead on a live (bitrate-paced) stream: "
          f"{100 * (shim.buffering_time_ms / nat.buffering_time_ms - 1):.2f}%  "
          f"(paper: claim 16 in EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
