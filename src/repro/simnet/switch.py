"""Store-and-forward Ethernet switch.

The paper's testbed connects the two nodes through a Fujitsu 10-GigE
switch; store-and-forward adds one extra serialization per hop, which is
a visible component of small-message latency.  The switch here forwards
by destination host id using a static table populated as ports are added
(flooding is unnecessary in the closed testbeds we build).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .engine import Simulator
from .nic import NicPort
from .packet import BROADCAST, Frame


class Switch:
    """N-port store-and-forward switch with per-port egress queues."""

    def __init__(self, sim: Simulator, name: str = "switch", forward_delay_ns: int = 300):
        if forward_delay_ns < 0:
            raise ValueError(f"negative forwarding delay: {forward_delay_ns}")
        self.sim = sim
        self.name = name
        # Fixed lookup/crossbar latency per forwarded frame (cut-through
        # silicon would be lower; 300 ns is typical 10GE store-and-forward).
        self.forward_delay_ns = forward_delay_ns
        self.ports: List[NicPort] = []
        self._table: Dict[int, NicPort] = {}
        self.forwarded = 0
        self.unroutable = 0

    def add_port(self, hosts_behind: Iterable[int], queue_frames: int = 1000) -> NicPort:
        """Create a port; frames for any host id in ``hosts_behind`` go out it."""
        port = NicPort(
            self.sim, owner=self, name=f"{self.name}.p{len(self.ports)}",
            queue_frames=queue_frames,
        )
        self.ports.append(port)
        for hid in hosts_behind:
            if hid in self._table:
                raise ValueError(f"host {hid} already routed on {self.name}")
            self._table[hid] = port
        return port

    def on_frame(self, frame: Frame, ingress: NicPort) -> None:
        sim = self.sim
        if frame.dst == BROADCAST:
            for port in self.ports:
                if port is not ingress:
                    sim.call_at(sim.now + self.forward_delay_ns, port.enqueue, frame)
            self.forwarded += 1
            return
        out = self._table.get(frame.dst)
        if out is None or out is ingress:
            self.unroutable += 1
            return
        self.forwarded += 1
        sim.call_at(sim.now + self.forward_delay_ns, out.enqueue, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name!r} ports={len(self.ports)} fwd={self.forwarded}>"
