"""Serialized per-host CPU resource.

The paper's software iWARP stack is **CPU-bound**, not link-bound: the
peak ~250 MB/s it reports on 10-GigE hardware is set by per-byte copy,
checksum and protocol-processing costs on the host, and the headline
bandwidth gaps between datagram-iWARP and TCP-based iWARP come from how
much CPU work each path does per message.  Modelling the CPU as a
serialized FIFO resource makes those effects emergent: when per-message
work exceeds the wire time, the CPU queue (not the link) paces the flow.

Work items submitted to a :class:`CpuResource` execute in submission
order; each occupies the CPU for its stated cost and its completion
callback fires when the CPU finishes it.
"""

from __future__ import annotations

from typing import Any, Callable

from .engine import Simulator


class CpuResource:
    """Non-preemptive FIFO CPU attached to a host.

    ``submit(cost_ns, fn, *args)`` charges ``cost_ns`` of CPU time and
    invokes ``fn(*args)`` when that work completes.  Back-to-back
    submissions queue behind one another, which is exactly how a single
    core servicing a protocol stack behaves.
    """

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._free_at: int = 0
        self.busy_ns: int = 0          # total CPU time consumed
        # Number of items executed.  A receive pool registered with
        # RnicDevice.reg_mrs is one item, however many regions it holds.
        self.work_items: int = 0

    def submit(self, cost_ns: int, fn: Callable, *args: Any) -> int:
        """Charge ``cost_ns`` and schedule ``fn`` at completion.

        Returns the absolute simulated time at which the work finishes.
        A zero-cost submission still round-trips through the event queue
        (after any queued work) to preserve ordering.
        """
        cost_ns = int(cost_ns)
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        sim = self.sim
        start = self._free_at
        if start < sim.now:
            start = sim.now
        done = start + cost_ns
        self._free_at = done
        self.busy_ns += cost_ns
        self.work_items += 1
        # Fire-and-forget: completion callbacks are never cancelled, so
        # no Event handle is built (this is the hottest scheduling site
        # in the bandwidth benchmarks).
        sim.call_at(done, fn, *args)
        return done

    def charge(self, cost_ns: int) -> int:
        """Charge CPU time with no completion callback (fire-and-forget
        accounting, e.g. interrupt overhead that delays later work)."""
        return self.submit(cost_ns, _noop)

    @property
    def free_at(self) -> int:
        """Absolute time at which currently queued work drains."""
        return max(self._free_at, self.sim.now)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` this CPU spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


def _noop() -> None:
    return None
