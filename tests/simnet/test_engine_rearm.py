"""``Simulator.rearm``: moving a kept timer handle.

``rearm(ev, t, *args)`` must be indistinguishable from ``ev.cancel()``
followed by a fresh ``at(t, ev.fn, *args)``: the same callbacks fire at
the same times in the same order, ``events_processed`` and
``pending()`` agree, and the clock never stops at an entry that was
only waiting for its due key.  The unit tests pin each case by hand;
the property runs random programs against a reference simulator whose
``rearm`` is literally cancel-then-at and whose run loop is the earlier
one, which tested ``until`` and the awaited future for None before
every event.  Programs mix ``run(until)`` with ``run_until(fut,
limit)``, and a random callback resolves the awaited future, so the
stop point, the clock, ``run()``'s return value and
``events_processed`` are compared after every run.
"""

from heapq import heappop, heappush
from typing import Any, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Future, SimulationError, Simulator


def _log(sim, fired):
    return lambda label: fired.append((sim.now, label))


def _tombstones(sim):
    return len(sim._heap) - sim.pending()


def test_rearm_later_pushes_nothing_and_fires_at_the_new_time():
    sim = Simulator()
    fired = []
    ev = sim.at(10, _log(sim, fired), "a")
    sim.rearm(ev, 30, "b")
    assert len(sim._heap) == 1
    assert sim.pending() == 1
    assert sim.run() == 1
    assert fired == [(30, "b")]
    assert sim.now == 30
    assert sim.events_processed == 1


def test_early_pop_does_not_move_the_clock_or_count():
    sim = Simulator()
    fired = []
    ev = sim.at(10, _log(sim, fired), "a")
    sim.rearm(ev, 30, "b")
    # The entry queued at t=10 pops inside this window; it must not run,
    # count, or leave the clock anywhere but at ``until``.
    assert sim.run(until=20) == 0
    assert sim.now == 20
    assert sim.events_processed == 0
    assert fired == []
    assert sim.pending() == 1
    sim.run()
    assert fired == [(30, "b")]


def test_rearm_earlier_leaves_a_tombstone():
    sim = Simulator()
    fired = []
    ev = sim.at(50, _log(sim, fired), "a")
    sim.rearm(ev, 20, "b")
    assert len(sim._heap) == 2
    assert _tombstones(sim) == 1
    assert sim.pending() == 1
    assert sim.run() == 1
    assert fired == [(20, "b")]
    # The superseded entry was discarded without moving the clock.
    assert sim.now == 20
    assert sim._heap == []


def test_rearm_to_the_same_time_takes_a_later_seq():
    """cancel() + at() would queue behind entries already due at that
    instant; so must rearm, even though it pushes nothing."""
    sim = Simulator()
    fired = []
    log = _log(sim, fired)
    ev = sim.at(10, log, "timer")
    sim.call_at(10, log, "other")
    sim.rearm(ev, 10, "timer-again")
    assert len(sim._heap) == 2
    sim.run()
    assert fired == [(10, "other"), (10, "timer-again")]


def test_rearm_fired_and_cancelled_handles():
    sim = Simulator()
    fired = []
    ev = sim.at(5, _log(sim, fired), "first")
    sim.run()
    sim.rearm(ev, 15, "second")
    assert ev.armed
    sim.run()
    ev.cancel()  # after firing: a no-op
    assert sim._heap == []
    sim.rearm(ev, 20, "third")
    ev.cancel()
    assert _tombstones(sim) == 1
    assert sim.pending() == 0
    sim.rearm(ev, 40, "fourth")  # revives the entry queued at t=20
    assert _tombstones(sim) == 0
    assert len(sim._heap) == 1
    sim.run()
    assert fired == [(5, "first"), (15, "second"), (40, "fourth")]
    assert sim.events_processed == 3


def test_rearm_cancelled_to_earlier_keeps_the_old_entry_dead():
    sim = Simulator()
    fired = []
    ev = sim.at(50, _log(sim, fired), "a")
    ev.cancel()
    sim.rearm(ev, 10, "b")
    assert _tombstones(sim) == 1
    assert sim.pending() == 1
    sim.run()
    assert fired == [(10, "b")]
    assert sim.now == 10


def test_rearm_from_inside_its_own_callback():
    sim = Simulator()
    fired = []
    holder = {}

    def tick(n):
        fired.append((sim.now, n))
        if n < 3:
            sim.rearm(holder["ev"], sim.now + 10, n + 1)

    holder["ev"] = sim.at(10, tick, 0)
    sim.run()
    assert fired == [(10, 0), (20, 1), (30, 2), (40, 3)]
    assert sim._heap == []


def test_rearm_into_the_past_raises():
    sim = Simulator()
    ev = sim.at(10, lambda: None)
    sim.run(until=20)
    with pytest.raises(SimulationError):
        sim.rearm(ev, 19)


def test_rearm_churn_never_compacts():
    """The retransmission pattern: a timer pushed later on every ACK
    keeps one heap entry, however many ACKs arrive."""
    sim = Simulator()
    fired = []
    timer = sim.at(100, _log(sim, fired), 0)
    acks = 1024
    for ack in range(1, acks):
        sim.run(until=ack)
        sim.rearm(timer, sim.now + 100, ack)
        assert len(sim._heap) <= 1
        assert _tombstones(sim) == 0
    sim.run()
    assert fired == [(acks - 1 + 100, acks - 1)]


def test_run_until_ignores_tombstones_past_the_limit():
    """A timer moved later and then cancelled leaves nothing live: the
    queue counts as drained, as it would after cancel() + at() +
    cancel(), though that leaves a tombstone past the limit."""
    sim = Simulator()
    ev = sim.at(1, lambda: None)
    sim.rearm(ev, 2)
    ev.cancel()
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until(sim.future(), 1)
    sim = Simulator()
    ev = sim.at(1, lambda: None)
    ev.cancel()
    sim.at(2, lambda: None).cancel()
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until(sim.future(), 1)
    sim.at(3, lambda: None)
    with pytest.raises(SimulationError, match="time limit 2"):
        sim.run_until(sim.future(), 2)


# ----------------------------------------------------------------------
# Property: rearm == cancel() + at(), and the loop == the earlier loop
# ----------------------------------------------------------------------

class ReferenceSimulator(Simulator):
    """The engine with the earlier ``run``, ``run_until`` and ``_loop``,
    kept verbatim but for one line: ``run_until`` calls the queue
    drained when no live event is left, as the engine does.  Testing
    the raw heap made the diagnostic depend on tombstones, which a
    rearm that pushes fewer entries cannot reproduce."""

    def run(self, until: Optional[int] = None) -> int:
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until t={until} before now={self.now}")
        processed = self._loop(until, None)
        if until is not None:
            self.now = until
        return processed

    def run_until(self, fut: Future, limit: Optional[int] = None) -> Any:
        self._loop(limit, fut)
        if fut.done:
            return fut.value
        if not self.pending():
            raise SimulationError("event queue drained before future resolved")
        raise SimulationError(f"future unresolved at time limit {limit}")

    def _loop(self, until: Optional[int], fut: Optional[Future]) -> int:
        processed = 0
        heap = self._heap
        pop = heappop
        while heap:
            if fut is not None and fut.done:
                break
            if until is not None and heap[0][0] > until:
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
                ev._qseq = None
                ev.armed = False
            self.now = t
            fn(*args)
            processed += 1
            self.events_processed += 1
        return processed


SLOTS = 2

_delay = st.integers(min_value=0, max_value=40)
_label = st.integers(min_value=0, max_value=7)
_op = st.one_of(
    st.tuples(st.just("at"), st.integers(0, SLOTS - 1), _delay, _label),
    st.tuples(st.just("call_at"), _delay, _label),
    st.tuples(st.just("cancel"), st.integers(0, SLOTS - 1)),
    st.tuples(st.just("rearm"), st.integers(0, SLOTS - 1), _delay, _label),
    st.tuples(st.just("resolve"), _label),
)
_top_op = st.one_of(
    _op,
    st.tuples(st.just("run"), st.integers(0, 60)),
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("run_until"), st.one_of(st.none(), st.integers(0, 60))),
)


class _Harness:
    """One simulator driven by a program.  ``reference`` runs the
    reference simulator and swaps rearm for cancel() + at() on a fresh
    handle.  ``results`` logs what each run returned or raised."""

    FIRE_LIMIT = 150

    def __init__(self, reactions, reference):
        self.sim = ReferenceSimulator() if reference else Simulator()
        self.reactions = reactions
        self.reference = reference
        self.slots = [None] * SLOTS
        self.fired = []
        self.awaited: Optional[Future] = None
        self.results = []

    def fire(self, label):
        self.fired.append((self.sim.now, label))
        if len(self.fired) < self.FIRE_LIMIT:
            for op in self.reactions.get(label, ()):
                self.apply(op)

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind == "at":
            _, slot, delay, label = op
            self.slots[slot] = sim.at(sim.now + delay, self.fire, label)
        elif kind == "call_at":
            _, delay, label = op
            sim.call_at(sim.now + delay, self.fire, label)
        elif kind == "cancel":
            ev = self.slots[op[1]]
            if ev is not None:
                ev.cancel()
        elif kind == "rearm":
            _, slot, delay, label = op
            ev = self.slots[slot]
            if ev is None:
                return
            if self.reference:
                ev.cancel()
                self.slots[slot] = sim.at(sim.now + delay, self.fire, label)
            else:
                sim.rearm(ev, sim.now + delay, label)
        elif kind == "resolve":
            if self.awaited is not None and not self.awaited.done:
                self.awaited.set_result(op[1])
        elif kind == "run":
            if op[1] is None:
                self.results.append(sim.run())
                assert sim._heap == []
                return
            until = sim.now + op[1]
            self.results.append(sim.run(until=until))
            # Nothing, live or tombstone, stays queued at or before the
            # bound a run stopped at: the heap holds no dead past.
            assert all(entry[0] > until for entry in sim._heap)
        elif kind == "run_until":
            self.awaited = fut = sim.future()
            limit = None if op[1] is None else sim.now + op[1]
            try:
                self.results.append(("value", sim.run_until(fut, limit)))
            except SimulationError as exc:
                self.results.append(("raised", str(exc)))

    def observe(self):
        sim = self.sim
        return (sim.now, sim.events_processed, sim.pending(), len(self.fired),
                self.results)


@settings(max_examples=400, deadline=None)
@given(
    program=st.lists(_top_op, min_size=4, max_size=40),
    reactions=st.dictionaries(_label, st.lists(_op, max_size=3), max_size=8),
)
def test_rearm_matches_cancel_then_at(program, reactions):
    real = _Harness(reactions, reference=False)
    ref = _Harness(reactions, reference=True)
    for op in program:
        real.apply(op)
        ref.apply(op)
        assert real.observe() == ref.observe()
    real.sim.run()
    ref.sim.run()
    assert real.fired == ref.fired
    assert real.observe() == ref.observe()
