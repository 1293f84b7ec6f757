"""Completion queues with timeout polling.

The paper makes timeout polling a requirement of the datagram design:
"In order to prevent polling on operations that will never complete (in
the event that incoming data are lost and no more incoming data are
expected) it is essential that the completion queue be polled with a
defined timeout period" (§IV.B.1).  :meth:`CompletionQueue.poll_wait`
implements exactly that contract: it resolves with completions, or with
an empty list when the timeout passes first — the caller's signal that
the operation it was waiting for was lost.  A consumer that drains the
CQ for its whole life arms :meth:`CompletionQueue.poll_callback` instead;
both kinds of waiter share one FIFO and one charge point.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ...obs import Histogram, sim_registry
from ...simnet.engine import Event, Future, Simulator

if TYPE_CHECKING:
    from .device import RnicDevice
    from .wr import WorkCompletion

#: A callback waiter: receives one non-empty completion batch.
CompletionCallback = Callable[[List["WorkCompletion"]], None]


class CqError(Exception):
    """Completion-queue misuse (overflow, ...)."""


class CompletionQueue:
    """FIFO of work completions shared by any number of QPs."""

    #: Exported series (see :mod:`repro.obs.metrics`), labelled cq/host.
    METRICS = (
        ("verbs.cq.completions", "counter", "completions_total"),
        ("verbs.cq.overflows", "counter", "overflows"),
        ("verbs.cq.events", "counter", "events_raised"),
        ("verbs.cq.poll_batch", "histogram", "poll_batch"),
    )

    def __init__(self, sim: Simulator, device: Optional[RnicDevice], depth: int = 4096):
        """``device`` numbers the CQ and charges its polls to its host's
        CPU; a standalone CQ (``None``) is numbered 0 and polls free."""
        if depth < 1:
            raise CqError(f"CQ depth must be positive, got {depth}")
        self.sim = sim
        self.host = host = device.host if device is not None else None
        self.depth = depth
        self.cq_num = next(device._cq_nums) if device is not None else 0
        self._entries: Deque[WorkCompletion] = deque()
        # Blocked pollers in arrival order: ``(future, timeout timer,
        # None)``, or ``(None, None, callback)`` for a callback waiter.
        self._waiters: Deque[
            Tuple[Optional[Future], Optional[Event], Optional[CompletionCallback]]
        ] = deque()
        # A cancelled timeout timer, kept for the next poll to rearm.
        self._spare: Optional[Event] = None
        self.overflows = 0
        self.completions_total = 0
        # Event notification (ibv_req_notify_cq-style): None = disarmed.
        self._armed: Optional[str] = None
        #: Callback fired (via the event queue) when armed and matched.
        self.on_event: Optional[Callable[[CompletionQueue], None]] = None
        self.events_raised = 0
        #: Completions handed out per successful poll.
        self.poll_batch = Histogram()
        sim_registry(sim).watch(
            self, {"cq": self.cq_num, "host": host.name if host is not None else ""}
        )

    # -- event notification ------------------------------------------------

    ARM_NEXT = "next"          # any next completion raises an event
    ARM_SOLICITED = "solicited"  # only solicited completions do

    def req_notify(self, solicited_only: bool = False) -> None:
        """Arm the CQ: the next completion (or next *solicited*
        completion — the send-with-solicited-event machinery the paper
        contrasts Write-Record against, §IV.B.3) raises one event via
        ``on_event`` and disarms."""
        self._armed = self.ARM_SOLICITED if solicited_only else self.ARM_NEXT

    def _maybe_raise_event(self, wc: WorkCompletion) -> None:
        """Raise the armed event if ``wc`` matches it (called only while
        armed)."""
        if self._armed == self.ARM_SOLICITED and not getattr(wc, "solicited", False):
            return
        self._armed = None
        self.events_raised += 1
        if self.on_event is not None:
            # Events are interrupt-like: delivered through the queue so
            # the handler never runs inside the pushing stack frame.
            self.sim.call_at(self.sim.now, self.on_event, self)

    # -- producer side (the stack) ------------------------------------------

    def push(self, wc: WorkCompletion) -> None:
        """Add a completion (charges CQE-generation cost upstream)."""
        self.completions_total += 1
        if self._armed is not None:
            self._maybe_raise_event(wc)
        waiters = self._waiters
        while waiters:
            fut, timer, callback = waiters.popleft()
            if fut is None:
                self._charge_poll(1)
                self.sim.call_at(self.sim.now, callback, [wc])
                return
            if fut.done:
                continue
            if timer is not None:
                timer.cancel()
                self._spare = timer
            self._charge_poll(1)
            fut.set_result([wc])
            return
        if len(self._entries) >= self.depth:
            self.overflows += 1
            return
        self._entries.append(wc)

    # -- consumer side (the application) ----------------------------------------

    def poll(self, max_entries: int = 1) -> List[WorkCompletion]:
        """Non-blocking poll: up to ``max_entries`` completions, possibly
        none."""
        out: List[WorkCompletion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        if out:
            self._charge_poll(len(out))
        return out

    def poll_wait(self, timeout_ns: Optional[int] = None, max_entries: int = 1) -> Future:
        """Future resolving to a non-empty completion list, or to ``[]``
        if ``timeout_ns`` elapses first (the datagram-iWARP loss-detection
        contract)."""
        fut = self.sim.future()
        ready = self.poll(max_entries)
        if ready:
            fut.set_result(ready)
            return fut
        timer = None
        if timeout_ns is not None:
            timer = self._spare
            if timer is None:
                timer = self.sim.at(self.sim.now + timeout_ns, self._expire, fut)
            else:
                self._spare = None
                self.sim.rearm(timer, self.sim.now + timeout_ns, fut)
        self._waiters.append((fut, timer, None))
        return fut

    def poll_callback(self, callback: CompletionCallback) -> None:
        """One-shot :meth:`poll_wait` without a timeout or a Future:
        ``callback`` receives the next non-empty batch, through the
        event queue, charged as a poll that batch would be."""
        ready = self.poll()
        if ready:
            self.sim.call_at(self.sim.now, callback, ready)
        else:
            self._waiters.append((None, None, callback))

    def _expire(self, fut: Future) -> None:
        if not fut.done:
            fut.set_result([])

    def _charge_poll(self, n: int) -> None:
        self.poll_batch.observe(n)
        if self.host is not None:
            self.host.cpu.charge(self.host.costs.poll_ns * n)

    def __len__(self) -> int:
        return len(self._entries)
