"""Timer semantics: lazy cancellation and handle-less entries.

``test_engine.py`` pins the engine's public contract; this module pins
the hot-path machinery underneath it — tombstoned cancels that stay
queued until their own time comes, and the handle-less heap entries
that ``call_at`` pushes.  All of it must be invisible at the semantic
level: these tests would pass against a naive heap of event objects.
The number of tombstones queued is ``len(sim._heap) - sim.pending()``.
"""

import numpy
import pytest

from repro.simnet.engine import SimulationError, Simulator, US


def _tombstones(sim):
    return len(sim._heap) - sim.pending()


# ----------------------------------------------------------------------
# Cancellation semantics
# ----------------------------------------------------------------------

def test_cancel_then_fire_skips_callback():
    sim = Simulator()
    fired = []
    ev = sim.at(10, fired.append, "a")
    sim.at(10, fired.append, "b")
    ev.cancel()
    sim.run()
    assert fired == ["b"]
    assert sim.events_processed == 1


def test_double_cancel_counts_one_tombstone():
    sim = Simulator()
    ev = sim.at(10, lambda: None)
    ev.cancel()
    ev.cancel()
    ev.cancel()
    assert _tombstones(sim) == 1
    assert sim.pending() == 0
    sim.run()
    assert _tombstones(sim) == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    ev = sim.at(10, fired.append, 1)
    sim.at(20, fired.append, 2).cancel()
    sim.run(until=15)
    assert fired == [1]
    assert _tombstones(sim) == 1
    ev.cancel()
    ev.cancel()
    # The event left the heap when it fired; late cancels must not
    # touch a heap the event is no longer in.
    assert _tombstones(sim) == 1


def test_cancel_inside_own_callback_is_noop():
    sim = Simulator()
    fired = []
    holder = {}

    def cb():
        fired.append(sim.now)
        holder["ev"].cancel()  # self-cancel while running

    holder["ev"] = sim.at(5, cb)
    sim.at(7, fired.append, 7)
    sim.run()
    assert fired == [5, 7]
    assert _tombstones(sim) == 0


def test_cancel_other_event_inside_callback():
    sim = Simulator()
    fired = []
    later = None

    def cb():
        fired.append("first")
        later.cancel()

    sim.at(5, cb)
    later = sim.at(10, fired.append, "second")
    sim.at(15, fired.append, "third")
    sim.run()
    assert fired == ["first", "third"]


def test_cancel_same_timestamp_sibling():
    """Cancelling an event scheduled for the *current* instant, from a
    callback running at that instant, must still suppress it."""
    sim = Simulator()
    fired = []
    victim = None

    def cb():
        fired.append("killer")
        victim.cancel()

    sim.at(5, cb)
    victim = sim.at(5, fired.append, "victim")
    sim.run()
    assert fired == ["killer"]


# ----------------------------------------------------------------------
# Handle-less entries (call_at)
# ----------------------------------------------------------------------

def test_call_after_fires_in_seq_order_with_schedule():
    """Handle-less (``call_at``) and handle-returning (``at``) scheduling
    share one sequence counter, so same-timestamp ties keep program
    order across both."""
    sim = Simulator()
    fired = []
    sim.call_at(10, fired.append, "a")
    sim.at(10, fired.append, "b")
    sim.call_at(10, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_call_after_inside_callback_runs_its_own_callback():
    """A relative ``call_at(sim.now + delay, ...)`` issued from inside a
    firing callback carries its own fn/args, not those of the entry that
    is running."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_at(sim.now + 5, fired.append, "second")

    sim.call_at(10, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 15


def test_pending_counts_handle_less_entries():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    ev = sim.at(30, lambda: None)
    assert sim.pending() == 3
    ev.cancel()
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_cancelled_tail_timer_does_not_advance_clock():
    """A tombstone left at the tail of the heap is discarded before the
    loop moves the clock: draining the heap stops at the last live
    event."""
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.at(1000, lambda: None).cancel()
    assert sim.run() == 1
    assert sim.now == 10
    assert sim._heap == []


def test_call_at_now_runs_after_queued_same_time_entries():
    """An entry scheduled for the current instant from inside a callback
    takes a later ``seq``, so it runs after the entries already queued
    for that instant, whichever API queued them."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_at(sim.now, fired.append, "late")

    sim.call_at(10, first)
    sim.call_at(10, fired.append, "queued-call")
    sim.at(10, fired.append, "queued-handle")
    sim.run()
    assert fired == ["first", "queued-call", "queued-handle", "late"]


def test_call_after_rejects_negative_delay():
    """A negative relative delay lands before now, which ``call_at``
    rejects, at the start of time and later."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_at(-1, lambda: None)
    sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.call_at(sim.now - 1, lambda: None)
    assert sim._heap == []


def test_mass_timer_churn_is_semantically_clean():
    """The retransmission workload in miniature: every 'ACK' cancels and
    re-arms a timer.  Exactly one timer (the last) must fire, however
    many tombstones the cancels left queued along the way."""
    sim = Simulator()
    fired = []
    state = {"timer": None, "acks": 0}
    total = 768

    def timer_fired():
        fired.append(sim.now)

    def on_ack():
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = sim.at(sim.now + 100 * US, timer_fired)
        state["acks"] += 1
        if state["acks"] < total:
            sim.call_at(sim.now + 10, on_ack)

    sim.call_at(0, on_ack)
    sim.run()
    assert len(fired) == 1
    assert fired[0] == (total - 1) * 10 + 100 * US
    assert sim.pending() == 0
    assert _tombstones(sim) == 0


# ----------------------------------------------------------------------
# Time conversion: int() is skipped only for values that are already int
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "when", [1500.75, True, numpy.int64(1500)], ids=["float", "bool", "int64"]
)
@pytest.mark.parametrize("schedule", ["call_at", "at", "rearm_earlier", "rearm_later"])
def test_non_int_times_fire_at_their_int_value(schedule, when):
    sim = Simulator()
    fired = []

    def record():
        fired.append((sim.now, type(sim.now)))

    if schedule == "call_at":
        sim.call_at(when, record)
    elif schedule == "at":
        sim.at(when, record)
    elif schedule == "rearm_earlier":
        sim.rearm(sim.at(5000, record), when)
    else:
        sim.rearm(sim.at(0, record), when)
    # Heap keys stay plain ints, so ordering is C-level int comparison.
    assert [type(entry[0]) for entry in sim._heap] == [int] * len(sim._heap)
    sim.run()
    assert fired == [(int(when), int)]
    assert type(sim.now) is int
