"""SipStone-style load generation and the two §VI.B.2 measurements.

* :func:`measure_response_time` — Fig. 10: average request/response time
  under light load (sequential calls).
* :func:`measure_memory` — Fig. 11: ramp N concurrent calls (one client
  socket/port each, as SIPp was configured), hold them all, and read the
  server's memory high-water mark in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...memory.accounting import FootprintModel, MemoryMeter
from ...simnet.engine import MS, SEC, Simulator
from ...simnet.topology import Testbed, build_testbed
from ...transport.stacks import install_stacks
from ...core.verbs.device import RnicDevice
from ...core.socketif.interface import IwSocketInterface
from .client import SipClient
from .server import SipServer

SIP_PORT = 5060

#: The footprint a testbed charges unless given another; the model is
#: frozen, so every testbed shares one instead of building its own.
_FOOTPRINT = FootprintModel()


@dataclass
class SipTestbed:
    testbed: Testbed
    server: SipServer
    server_api: IwSocketInterface
    client_api: IwSocketInterface
    meter: MemoryMeter

    @property
    def sim(self) -> Simulator:
        return self.testbed.sim


def build_sip_testbed(
    mode: str,
    footprint: Optional[FootprintModel] = None,
    pool_slots: int = 32,
    pool_slot_bytes: int = 4096,
) -> SipTestbed:
    """Two-node testbed: host 0 runs the server, host 1 the clients.

    SIP messages are small, so the shim's receive pools are sized down
    (the defaults would pin 2 MB per socket, absurd for SIP)."""
    tb = build_testbed(2)
    nets = install_stacks(tb)
    devs = [RnicDevice(n) for n in nets]
    server_api = IwSocketInterface(
        devs[0], rdma_mode=False, pool_slots=pool_slots,
        pool_slot_bytes=pool_slot_bytes,
    )
    client_api = IwSocketInterface(
        devs[1], rdma_mode=False, pool_slots=pool_slots,
        pool_slot_bytes=pool_slot_bytes,
    )
    meter = MemoryMeter(footprint or _FOOTPRINT)
    server = SipServer(server_api, tb.hosts[0], SIP_PORT, mode=mode, meter=meter)
    server.start()
    return SipTestbed(tb, server, server_api, client_api, meter)


def measure_response_time(mode: str, calls: int = 20) -> Dict[str, float]:
    """Fig. 10: mean INVITE->first-response time (ms), sequential calls
    under light load (small receive pools, idle gaps)."""
    bed = build_sip_testbed(mode, pool_slots=4)
    sim = bed.sim
    times = []

    def driver():
        for i in range(calls):
            client = SipClient(
                bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                mode=mode, user=f"user{i}",
            )
            proc = client.run_call()
            yield proc.finished
            if client.failed:
                raise RuntimeError(f"SIP call {i} failed in mode {mode}")
            times.extend(client.response_times_ns)
            yield 1 * MS  # light load: idle gap between calls

    done = sim.process(driver()).finished
    sim.run_until(done, limit=600 * SEC)
    mean_ms = sum(times) / len(times) / 1e6
    return {"mean_ms": mean_ms, "samples": len(times)}


def measure_memory(
    mode: str,
    concurrent_calls: int,
    footprint: Optional[FootprintModel] = None,
) -> Dict[str, float]:
    """Fig. 11: server memory with N concurrent held calls."""
    bed = build_sip_testbed(mode, footprint=footprint)
    sim = bed.sim
    release = sim.future()
    established = {"count": 0, "target": concurrent_calls, "future": sim.future()}

    clients = []

    def ramp():
        for i in range(concurrent_calls):
            client = SipClient(
                bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                mode=mode, user=f"user{i}",
            )
            clients.append(client)
            client.hold_call(established, release)
            # Self-pacing ramp: never run more than a window of calls
            # ahead of what the server has established, so the receive
            # pools are not overrun (SIPp rate-limits the same way).
            while established["count"] < i - 8:
                yield 200_000
            yield 50_000
        yield established["future"]
        # Everything is up: the high-water mark is now set.
        release.set_result(True)

    done = sim.process(ramp()).finished
    sim.run_until(done, limit=3_000 * SEC)
    sim.run(until=sim.now + 500 * MS)  # drain BYEs
    failed = sum(1 for c in clients if c.failed)
    if failed:
        raise RuntimeError(f"{failed}/{concurrent_calls} calls failed in {mode}")
    return {
        "high_water_bytes": bed.meter.high_water,
        "final_bytes": bed.meter.bytes_now,
        "concurrent_calls": concurrent_calls,
    }
