"""Discrete-event simulation engine.

The engine is the substrate everything else in :mod:`repro` runs on: it
stands in for the wall clock of the paper's two-node 10-GigE testbed.
Time is kept in **integer nanoseconds** so event ordering is exact and
runs are bit-for-bit reproducible.

Two programming styles are supported:

* **callback style** — ``sim.call_at(sim.now + delay_ns, fn, *args)``,
  or ``sim.at(...)`` when the caller keeps a handle to cancel or move
  the timer; used by the protocol stacks, which are naturally
  event-driven.
* **process style** — generator coroutines driven by :class:`Process`
  (a deliberately small simpy-like facility); used by applications and
  benchmarks, which read much better as sequential code::

      def client(sim, sock):
          yield 1 * MS
          fut = sock.recv_future()
          data, src = yield fut

Yielding an ``int`` sleeps that many nanoseconds; yielding a
:class:`Future` suspends until its result is set; yielding a
:class:`Process` suspends until it returns.

Hot-path notes
--------------

The heap stores plain ``(time, seq, fn, args, handle)`` tuples, so
ordering is decided by C-level integer comparisons (``seq`` is unique,
so comparison never reaches the callback).  :meth:`Simulator.run` and
:meth:`Simulator.run_until` share one pop/fire loop, which tests one
stop time and one future per event: a run with no bound passes
``_FOREVER`` and a run with no future a future that never resolves,
so the loop never asks whether either was given.

Most events are fire-and-forget: :meth:`Simulator.call_at` pushes
``handle=None`` and allocates nothing but the tuple.  Only
:meth:`Simulator.at` builds an :class:`Event`, the handle a caller keeps
to cancel or move a timer.

Cancellation is *lazy*: :meth:`Event.cancel` marks a tombstone that
stays queued until its own time comes, when the run loop discards it
before it moves the clock, so a cancelled timer never decides ``now``.
After ``run(until=T)`` every entry still queued, live or tombstone,
lies after ``T``.

Timers that are re-armed on every segment (retransmission, delayed
ACK, CQ poll timeouts) keep their handle and move it with
:meth:`Simulator.rearm` instead of cancelling it and scheduling a new
one.  ``rearm`` takes a ``seq`` exactly where ``cancel()`` + ``at()``
took one and records the handle's *due key* ``(time, seq)`` apart from
the key of the entry actually queued for it.  A move to a later time
pushes nothing while an entry for the handle is queued at or before
it: that entry pops early and is queued again at the due key, without
moving the clock, counting an event or running the callback.  A move
to an earlier time pushes a new entry and leaves the old one as a
tombstone.  Every callback therefore fires at the key it would have
had, and only keys decide order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

# Convenient time-unit multipliers (all in nanoseconds).
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """Handle to a scheduled callback.  Returned by :meth:`Simulator.at`
    so the caller can cancel the timer, or move it with
    :meth:`Simulator.rearm`.

    ``time`` and ``seq`` are the due key, the key the callback fires at.
    ``_qtime``/``_qseq`` are the key of the heap entry queued for the
    handle (``_qseq`` is None when none is); any other entry that
    carries the handle is a superseded tombstone."""

    __slots__ = ("time", "seq", "fn", "args", "armed", "_sim", "_qtime", "_qseq")

    def __init__(self, time: int, seq: int, fn: Callable[..., None], args: tuple,
                 sim: "Simulator"):
        self.time = self._qtime = time
        self.seq = self._qseq = seq
        self.fn = fn
        self.args = args
        #: True from (re)arming until the callback fires or is cancelled.
        self.armed = True
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly,
        and safe to call after the event has fired (a no-op)."""
        if not self.armed:
            return
        self.armed = False
        if self._qseq is not None:
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else "idle"
        return f"<Event t={self.time} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Future:
    """A one-shot value a :class:`Process` can wait on.

    Protocol objects hand futures to application processes ("the next
    datagram", "connection established", ...).  Multiple waiters are
    allowed; all are resumed with the same result.
    """

    __slots__ = ("sim", "done", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.done = False
        self.value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    def set_result(self, value: Any = None) -> None:
        if self.done:
            raise SimulationError("Future already resolved")
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        for cb in callbacks:
            # Resume waiters through the event queue so resumption order
            # is deterministic and re-entrancy is impossible.
            sim.call_at(sim.now, cb, value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        if self.done:
            self.sim.call_at(self.sim.now, cb, self.value)
        else:
            self._callbacks.append(cb)


class Mailbox:
    """The one untimed FIFO hand-off between a producer and waiting
    consumers: each item goes to the oldest waiting :meth:`get`, or is
    queued for the next one.  Receive queues (stream bytes, RD messages)
    and accept queues (connections, RC QPs) are mailboxes.

    A waiter resumes through :meth:`Future.set_result`, so through the
    event queue at ``now``: :meth:`put` never runs a consumer itself.
    After :meth:`close`, a get that finds nothing queued resolves at once
    with the close value.
    """

    __slots__ = ("sim", "_items", "_getters", "_closed", "_close_value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()
        self._closed = False
        self._close_value: Any = None

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().set_result(item)
        else:
            self._items.append(item)

    def get(self) -> Future:
        """Future resolving to the next item."""
        fut = Future(self.sim)
        if self._items:
            fut.set_result(self._items.popleft())
        elif self._closed:
            fut.set_result(self._close_value)
        else:
            self._getters.append(fut)
        return fut

    def cancel(self, fut: Future) -> None:
        """Withdraw a :meth:`get` that is still waiting (its caller gave
        up), so the next item goes to the next getter."""
        self._getters.remove(fut)

    def close(self, value: Any = None) -> None:
        """Resolve every waiting get, and every later get that finds
        nothing queued, with ``value``."""
        self._closed = True
        self._close_value = value
        getters, self._getters = self._getters, deque()
        for fut in getters:
            fut.set_result(value)


class Process:
    """Drives a generator coroutine inside the simulation.

    The generator may yield:

    * an ``int`` — sleep that many nanoseconds,
    * a :class:`Future` — wait for its value (sent back into the generator),
    * another :class:`Process` — wait for it to finish (its return value is
      sent back).

    When the generator returns, :attr:`result` holds its return value and
    :attr:`finished` becomes a resolved :class:`Future`.
    """

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.result: Any = None
        self.finished = Future(sim)
        sim.call_at(sim.now, self._step, None)

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.result = stop.value
            self.finished.set_result(stop.value)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, int):
            # A negative delay lands before now, which call_at rejects.
            self.sim.call_at(self.sim.now + yielded, self._step, None)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._step)
        elif isinstance(yielded, Process):
            yielded.finished.add_callback(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )


#: The stop time of a run with no bound: later than any event time a
#: simulation uses (nanoseconds; about 292 years).
_FOREVER = 1 << 63
#: The future of a run that waits for none: it never resolves.
_UNRESOLVED = Future(None)  # type: ignore[arg-type]

#: Heap entry: ``(time, seq, fn, args, handle)``, where ``handle`` is
#: the :class:`Event` returned by ``at`` or None for a fire-and-forget
#: callback.  Ordering is settled by the two leading ints; nothing after
#: them is ever compared.
_HeapEntry = Tuple[int, int, Callable[..., None], tuple, Optional[Event]]


def _live(entry: _HeapEntry) -> bool:
    """False for a tombstone: the entry of a cancelled handle, or one a
    :meth:`Simulator.rearm` to an earlier time superseded."""
    handle = entry[4]
    return handle is None or (handle.armed and entry[1] == handle._qseq)


class Simulator:
    """The event loop.  One instance per experiment run."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        self.events_processed: int = 0
        # Lazily populated by repro.obs.sim_registry (a support layer the
        # engine must not import); None means no registry attached yet.
        self.obs_registry: Optional[Any] = None
        # The frame-trace sink every NIC port of this simulator writes
        # to (a repro.simnet.trace.Tracer); None means no tracing.
        self.tracer: Optional[Any] = None

    # -- scheduling ------------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        t = time_ns if type(time_ns) is int else int(time_ns)
        self._seq += 1
        ev = Event(t, self._seq, fn, args, self)
        heappush(self._heap, (t, self._seq, fn, args, ev))
        return ev

    def rearm(self, ev: Event, time_ns: int, *args: Any) -> None:
        """Make ``ev`` (pending, cancelled or fired) run ``ev.fn(*args)``
        at ``time_ns``, exactly as ``ev.cancel()`` followed by a fresh
        :meth:`at` would, but keeping the handle.  Pushes nothing while
        an entry for ``ev`` is queued at or before ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        t = time_ns if type(time_ns) is int else int(time_ns)
        self._seq += 1
        ev.time = t
        ev.seq = self._seq
        ev.args = args
        queued = ev._qseq is not None
        if queued and ev._qtime <= t:
            ev.armed = True  # a cancelled entry carries it again
            return
        heappush(self._heap, (t, self._seq, ev.fn, args, ev))
        ev._qtime = t
        ev._qseq = self._seq
        if ev.armed and queued:
            self._note_cancel()  # the later entry it left behind
        ev.armed = True

    def call_at(self, time_ns: int, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no cancellable handle is returned,
        so no :class:`Event` is built."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        if type(time_ns) is not int:
            time_ns = int(time_ns)
        self._seq += 1
        heappush(self._heap, (time_ns, self._seq, fn, args, None))

    # -- tombstone bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        """Called once per new tombstone: a queued entry was cancelled or
        superseded by :meth:`rearm`.  The engine keeps no count (a
        tombstone leaves the heap when its own time comes); the hook
        stays so a profiler can count cancellations by wrapping it."""

    # -- process/future helpers -----------------------------------------

    def future(self) -> Future:
        return Future(self)

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        return Process(self, gen, name)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the queue is empty or the clock passes
        ``until``, then leave the clock at ``until`` if one was given.
        Returns the number of events processed by this call.  The clock
        never moves backwards: ``until`` before ``now`` raises."""
        if until is None:
            return self._loop(_FOREVER, _UNRESOLVED)
        if until < self.now:
            raise SimulationError(f"cannot run until t={until} before now={self.now}")
        processed = self._loop(until, _UNRESOLVED)
        self.now = until
        return processed

    def run_until(self, fut: Future, limit: Optional[int] = None) -> Any:
        """Run until ``fut`` resolves; returns its value.

        Raises :class:`SimulationError` if the event queue drains (or the
        optional time ``limit`` passes) first — that always indicates a
        deadlock in the experiment being simulated.  "Drained" means no
        live event is left: tombstones past ``limit`` do not count, so
        the diagnostic is the same whether a timer was moved by
        :meth:`rearm` or by ``cancel()`` and :meth:`at`.
        """
        self._loop(_FOREVER if limit is None else limit, fut)
        if fut.done:
            return fut.value
        if not any(map(_live, self._heap)):
            raise SimulationError("event queue drained before future resolved")
        raise SimulationError(f"future unresolved at time limit {limit}")

    def _loop(self, until: int, fut: Future) -> int:
        """The pop/fire loop: stops when the queue is empty, the next
        entry lies past ``until``, or ``fut`` has resolved.  Returns the
        number of events fired."""
        processed = 0
        heap = self._heap
        pop = heappop
        while heap:
            if fut.done or heap[0][0] > until:
                break
            t, s, fn, args, ev = pop(heap)
            if ev is not None:
                if s != ev._qseq:
                    continue  # superseded by a rearm to earlier
                if not ev.armed:
                    ev._qseq = None
                    continue
                if s != ev.seq:
                    # Queued before a rearm to later: wait for the due key.
                    ev._qtime = ev.time
                    ev._qseq = ev.seq
                    heappush(heap, (ev.time, ev.seq, fn, ev.args, ev))
                    continue
                # Nothing queued while it runs: a cancel() from inside
                # the callback (or long after) is a no-op, and a rearm()
                # pushes a fresh entry.
                ev._qseq = None
                ev.armed = False
            self.now = t
            fn(*args)
            processed += 1
            self.events_processed += 1
        return processed

    def pending(self) -> int:
        """Number of live (armed, not superseded) events still queued."""
        return sum(1 for entry in self._heap if _live(entry))
