"""Simulated host: CPU + NIC + protocol dispatch.

A host stands in for one of the paper's Opteron nodes.  It owns a
serialized :class:`~repro.simnet.cpu.CpuResource` (all kernel and iWARP
software costs are charged there), one or more NIC ports, and a registry
of network-layer protocol handlers keyed by the frame payload's
``PROTO`` tag (in practice a single IP stack).

The host itself knows nothing about IP/UDP/TCP/iWARP — those stacks from
:mod:`repro.transport` and :mod:`repro.core` bind themselves to a host
with :meth:`register_protocol`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .cpu import CpuResource
from .engine import Simulator
from .nic import NicPort
from .packet import BROADCAST, Frame


class Host:
    """One endpoint node of the testbed."""

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        name: str = "",
        costs: Optional[Any] = None,
    ):
        self.sim = sim
        self.host_id = int(host_id)
        self.name = name or f"host{host_id}"
        self.cpu = CpuResource(sim, name=f"{self.name}.cpu")
        # The calibrated cost model (repro.models.costs.CostModel).  Held
        # here so every protocol layer bound to the host shares one model.
        self.costs = costs
        self.ports: List[NicPort] = []
        self._protocols: Dict[str, Any] = {}
        # Optional repro.simnet.trace.Tracer receiving WR-lifecycle spans
        # (repro.obs.spans.wr_span); None keeps span recording a no-op.
        self.wr_tracer: Optional[Any] = None

    # -- hardware ----------------------------------------------------------

    def add_port(self, queue_frames: int = 1000) -> NicPort:
        port = NicPort(
            self.sim, owner=self,
            name=f"{self.name}.nic{len(self.ports)}",
            queue_frames=queue_frames,
        )
        self.ports.append(port)
        return port

    @property
    def port(self) -> NicPort:
        """The primary NIC (all testbeds in this reproduction use one)."""
        if not self.ports:
            raise RuntimeError(f"{self.name} has no NIC port")
        return self.ports[0]

    # -- protocol binding ----------------------------------------------------

    def register_protocol(self, proto: str, handler: Any) -> None:
        """Bind a network-layer handler; ``handler.on_packet(payload, frame)``
        is invoked for every arriving frame whose payload declares that
        ``PROTO``."""
        if proto in self._protocols:
            raise ValueError(f"protocol {proto!r} already registered on {self.name}")
        self._protocols[proto] = handler

    def protocol(self, proto: str) -> Any:
        return self._protocols[proto]

    # -- frame I/O -------------------------------------------------------------

    def send_frame(self, frame: Frame, port: Optional[NicPort] = None) -> bool:
        return (port or self.port).enqueue(frame)

    def on_frame(self, frame: Frame, port: NicPort) -> None:
        dst = frame.dst
        if dst != self.host_id and dst != BROADCAST:
            # Not ours (can happen under broadcast flooding); ignore.
            return
        proto = getattr(frame.payload, "PROTO", None)
        handler = self._protocols.get(proto)
        if handler is None:
            return
        handler.on_packet(frame.payload, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name!r} id={self.host_id}>"
