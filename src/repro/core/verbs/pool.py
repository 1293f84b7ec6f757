"""The receive pool under the socket interface (§V.A) and MPI (§VII)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...memory.region import Access, MemoryRegion
from .qp import ERROR, QueuePair
from .wr import WC_FLUSHED, RecvWR, Sge, WorkCompletion

#: An owner's handler: one completion, and the slot region it landed in
#: (None for one that took no slot, such as a Write-Record arrival).
CompletionHandler = Callable[[WorkCompletion, Optional[MemoryRegion]], None]


class ReceivePool:
    """``count`` registered ``size``-byte slots, each with one receive
    WR posted on ``qp`` and keyed by its region's stag.

    The slots register as one CPU work item (``reg_mrs``).  The pool
    drains ``qp.rq_cq`` and hands each completion to ``on_completion``;
    then it reposts that slot's same WR unless the completion is FLUSHED
    or the QP is in ERROR.  Once the QP is in ERROR it stops draining and
    lets go of ``on_completion``.
    """

    __slots__ = ("qp", "slots", "_on_completion")

    def __init__(
        self, qp: QueuePair, count: int, size: int, on_completion: CompletionHandler
    ):
        self.qp = qp
        self._on_completion = on_completion
        self.slots: Dict[int, RecvWR] = {}
        slots, post = self.slots, qp.post_recv
        for mr in qp.device.reg_mrs(count, size, Access.local_only(), qp.pd):
            wr = slots[mr.stag] = RecvWR(sges=[Sge(mr)], wr_id=mr.stag)
            post(wr)
        qp.rq_cq.poll_callback(self._drain)

    def _drain(self, wcs: List[WorkCompletion]) -> None:
        qp = self.qp
        for wc in wcs:
            wr = self.slots.get(wc.wr_id)
            self._on_completion(wc, None if wr is None else wr.sges[0].mr)
            if wr is not None and wc.status is not WC_FLUSHED and qp.state != ERROR:
                qp.post_recv(wr)
        if qp.state != ERROR:
            qp.rq_cq.poll_callback(self._drain)
        else:
            # Drained for good: drop the owner's handler, which closes a
            # reference cycle (owner -> pool -> handler -> owner) that
            # only the cyclic collector would otherwise free.
            del self._on_completion

    def close(self) -> None:
        """Deregister every slot (after the QP's close: flushed receives
        never touch their slots)."""
        dereg = self.qp.device.dereg_mr
        for wr in self.slots.values():
            dereg(wr.sges[0].mr)
