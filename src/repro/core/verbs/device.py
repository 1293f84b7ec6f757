"""RNIC device: the root verbs object on each host.

Owns the steering-tag registry, protection domains, and QP creation —
including the connection establishment machinery for RC (TCP connect +
MPA negotiation) and the datagram QP initialization verb the paper adds
(§IV.B item 4: "a method for initializing datagram QPs").

Note the paper's §IV.B item 6 for datagrams: "there is no initial set up
of operating conditions exchanged when the QP is created; the operation
conditions are set locally" — visible here as ``create_ud_qp`` returning
a ready QP with no wire traffic, versus ``rc_connect`` which performs a
full TCP + MPA handshake.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Union

from ...memory.region import Access, MemoryRegion
from ...memory.registry import StagRegistry
from ...simnet.engine import Future, Simulator
from ...transport.sctp import SctpAssociation
from ...transport.stacks import NetStack
from ..mpa.connection import MpaConnection
from .cq import CompletionQueue
from .qp import RcQp, RcSctpQp, UdQp
from .wr import Address

#: Default maximum ULPDU on the RC path: sized so one DDP segment plus
#: MPA framing and markers fits a standard-MTU TCP segment (RFC 5044's
#: MULPDU guidance).
DEFAULT_RC_MULPDU = 1408


class DeviceError(Exception):
    """Verbs-level misuse of the device."""


class RnicDevice:
    """One simulated RNIC bound to a host's network stacks."""

    def __init__(self, net: NetStack, rc_mulpdu: int = DEFAULT_RC_MULPDU):
        if rc_mulpdu < 128:
            raise DeviceError(f"MULPDU too small: {rc_mulpdu}")
        self.net = net
        self.host = net.host
        self.sim: Simulator = net.sim
        self.rc_mulpdu = rc_mulpdu
        self.registry = StagRegistry()
        self._pds = itertools.count(1)
        # QP and CQ numbers are the device's own, as on a real RNIC.
        self._qp_nums = itertools.count(1)
        self._cq_nums = itertools.count(1)
        self._listeners: Dict[int, RcListener] = {}

    # -- protection domains & memory -----------------------------------------

    def alloc_pd(self) -> int:
        return next(self._pds)

    def reg_mr(
        self,
        buffer: Union[int, bytes, bytearray],
        access: Access = Access.local_only(),
        pd: int = 0,
    ) -> MemoryRegion:
        """Register memory (charges the pin/translate cost)."""
        mr = self.registry.register(buffer, access, pd_handle=pd)
        self.host.cpu.charge(self._reg_cost(mr))
        return mr

    def reg_mrs(
        self, count: int, length: int, access: Access = Access.local_only(), pd: int = 0
    ) -> List[MemoryRegion]:
        """Register ``count`` fresh ``length``-byte regions (a receive
        pool) as one CPU work item.  It charges exactly what ``count``
        :meth:`reg_mr` calls would, each truncated to whole nanoseconds,
        so the CPU's ``free_at`` and ``busy_ns`` come out the same."""
        mrs = [self.registry.register(length, access, pd_handle=pd) for _ in range(count)]
        if mrs:
            self.host.cpu.charge(count * int(self._reg_cost(mrs[0])))
        return mrs

    def _reg_cost(self, mr: MemoryRegion) -> float:
        costs = self.host.costs
        return costs.reg_mr_fixed_ns + costs.reg_mr_per_page_ns * mr.pages

    def dereg_mr(self, mr: MemoryRegion) -> None:
        self.registry.deregister(mr)

    # -- completion queues ------------------------------------------------------

    def create_cq(self, depth: int = 4096) -> CompletionQueue:
        return CompletionQueue(self.sim, self, depth=depth)

    # -- datagram QPs -------------------------------------------------------------

    def create_ud_qp(
        self,
        pd: int,
        sq_cq: CompletionQueue,
        rq_cq: Optional[CompletionQueue] = None,
        port: Optional[int] = None,
        reliable: bool = False,
        rd_opts: Optional[Dict[str, Any]] = None,
    ) -> UdQp:
        """The new datagram-QP initialization verb.  Ready immediately —
        no connection setup, no wire traffic.  ``rd_opts`` (RD mode only)
        passes reliability knobs through to the underlying
        :class:`~repro.transport.rudp.RudpSocket` (window, RTO bounds,
        ``adaptive``, SACK, retry budget...)."""
        return UdQp(
            self, pd, sq_cq, rq_cq or sq_cq, port=port, reliable=reliable,
            rd_opts=rd_opts,
        )

    # -- connected QPs ---------------------------------------------------------------

    def _rc_stack(self, transport: str) -> Any:
        """The LLP stack behind an RC ``transport`` name (the one place
        the name is checked)."""
        if transport == "tcp":
            return self.net.tcp
        if transport == "sctp":
            return self.net.sctp
        raise DeviceError(f"unknown RC transport {transport!r}")

    def _rc_qp(
        self,
        llp: Any,
        initiator: bool,
        pd: int,
        sq_cq: CompletionQueue,
        rq_cq: CompletionQueue,
        markers: bool,
        crc: bool,
    ) -> RcQp:
        """An RC QP over a fresh LLP endpoint: an SCTP association
        carries DDP segments as messages; a TCP socket gets MPA first."""
        if isinstance(llp, SctpAssociation):
            return RcSctpQp(self, pd, sq_cq, rq_cq, llp, llp.remote)
        mpa = MpaConnection(llp, initiator=initiator, markers=markers, crc=crc)
        return RcQp(self, pd, sq_cq, rq_cq, mpa, llp.remote)

    def rc_connect(
        self,
        remote: Address,
        pd: int,
        sq_cq: CompletionQueue,
        rq_cq: Optional[CompletionQueue] = None,
        markers: bool = True,
        crc: bool = True,
        transport: str = "tcp",
    ) -> RcQp:
        """Active side.  ``transport="tcp"`` (the default): TCP connect +
        MPA negotiation.  ``transport="sctp"``: an SCTP association —
        message boundaries make the whole MPA layer unnecessary
        (RFC 5043 shape).  The returned QP's ``ready`` future resolves
        (with the QP) once it reaches RTS."""
        llp = self._rc_stack(transport).connect(remote)
        return self._rc_qp(llp, True, pd, sq_cq, rq_cq or sq_cq, markers, crc)

    def rc_listen(
        self,
        port: int,
        pd: int,
        sq_cq_factory: Callable[[], CompletionQueue],
        on_qp: Optional[Callable[[RcQp], None]] = None,
        markers: bool = True,
        crc: bool = True,
        transport: str = "tcp",
    ) -> RcListener:
        listener = RcListener(self, port, pd, sq_cq_factory, on_qp, markers, crc, transport)
        self._listeners[port] = listener
        return listener


class RcListener:
    """Passive-side RC endpoint: accepts TCP connections (running MPA
    negotiation on each) or SCTP associations, and hands out ready QPs."""

    def __init__(
        self,
        device: RnicDevice,
        port: int,
        pd: int,
        cq_factory: Callable[[], CompletionQueue],
        on_qp: Optional[Callable[[RcQp], None]],
        markers: bool,
        crc: bool,
        transport: str,
    ):
        self.device = device
        self.port = port
        self.pd = pd
        self.cq_factory = cq_factory
        self.on_qp = on_qp
        self.markers = markers
        self.crc = crc
        self._pending: List[RcQp] = []
        self._waiters: List[Future] = []
        self._llp_listener = device._rc_stack(transport).listen(port)
        self._llp_listener.on_accept = self._on_accept

    def _on_accept(self, llp: Any) -> None:
        cq = self.cq_factory()
        qp = self.device._rc_qp(llp, False, self.pd, cq, cq, self.markers, self.crc)
        qp.ready.add_callback(lambda result: self._on_qp_ready(qp, result))

    def _on_qp_ready(self, qp: RcQp, result: Optional[object]) -> None:
        if result is None:
            return
        if self.on_qp is not None:
            self.on_qp(qp)
        elif self._waiters:
            self._waiters.pop(0).set_result(qp)
        else:
            self._pending.append(qp)

    def accept_future(self) -> Future:
        fut = self.device.sim.future()
        if self._pending:
            fut.set_result(self._pending.pop(0))
        else:
            self._waiters.append(fut)
        return fut

    def close(self) -> None:
        self._llp_listener.close()
        self.device._listeners.pop(self.port, None)
