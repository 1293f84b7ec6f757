"""Timer semantics: lazy cancellation, compaction, handle-less entries.

``test_engine.py`` pins the engine's public contract; this module pins
the hot-path machinery added underneath it — tombstoned cancels with a
dead-entry counter, in-place heap compaction once tombstones dominate,
and the handle-less heap entries that ``call_after``/``call_at`` push.
All of it must be invisible at the semantic level: these tests would
pass against a naive heap of event objects.
"""

import pytest

from repro.simnet.engine import (
    _COMPACT_MIN_DEAD, SimulationError, Simulator, US,
)


# ----------------------------------------------------------------------
# Cancellation semantics
# ----------------------------------------------------------------------

def test_cancel_then_fire_skips_callback():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, fired.append, "a")
    sim.schedule(10, fired.append, "b")
    ev.cancel()
    sim.run()
    assert fired == ["b"]
    assert sim.events_processed == 1


def test_double_cancel_counts_one_tombstone():
    sim = Simulator()
    ev = sim.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    ev.cancel()
    assert sim._dead == 1
    assert sim.pending() == 0
    sim.run()
    assert sim._dead == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, fired.append, 1)
    sim.schedule(20, fired.append, 2).cancel()
    sim.run(until=15)
    assert fired == [1]
    assert sim._dead == 1
    ev.cancel()
    ev.cancel()
    # The event left the heap when it fired; late cancels must not skew
    # the tombstone accounting of a heap the event is no longer in.
    assert sim._dead == 1


def test_cancel_inside_own_callback_is_noop():
    sim = Simulator()
    fired = []
    holder = {}

    def cb():
        fired.append(sim.now)
        holder["ev"].cancel()  # self-cancel while running

    holder["ev"] = sim.schedule(5, cb)
    sim.schedule(7, fired.append, 7)
    sim.run()
    assert fired == [5, 7]
    assert sim._dead == 0


def test_cancel_other_event_inside_callback():
    sim = Simulator()
    fired = []
    later = None

    def cb():
        fired.append("first")
        later.cancel()

    sim.schedule(5, cb)
    later = sim.schedule(10, fired.append, "second")
    sim.schedule(15, fired.append, "third")
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

    sim.schedule(5, cb)
    victim = sim.schedule(5, fired.append, "victim")
    sim.run()
    assert fired == ["killer"]


# ----------------------------------------------------------------------
# Heap compaction
# ----------------------------------------------------------------------

def test_compaction_triggers_and_preserves_live_events():
    sim = Simulator()
    fired = []
    n = _COMPACT_MIN_DEAD + 50
    doomed = [sim.schedule(1000 + i, fired.append, i) for i in range(n)]
    survivors = [sim.schedule(5000 + i, fired.append, 10_000 + i) for i in range(7)]
    for ev in doomed:
        ev.cancel()
    # Tombstones dominated the heap at some point during the cancel
    # storm, so compaction must have run: the heap can no longer hold
    # every tombstone, and the dead counter was reset along the way.
    assert len(sim._heap) < n + len(survivors)
    assert sim._dead == len(sim._heap) - len(survivors)
    assert sim._dead < n
    assert sim.pending() == len(survivors)
    sim.run()
    assert fired == [10_000 + i for i in range(7)]


def test_compaction_below_threshold_is_deferred():
    sim = Simulator()
    keep = sim.schedule(100, lambda: None)
    doomed = [sim.schedule(10 + i, lambda: None) for i in range(_COMPACT_MIN_DEAD - 1)]
    for ev in doomed:
        ev.cancel()
    # One short of the floor: tombstones stay queued, pending() sees
    # through them.
    assert sim._dead == len(doomed)
    assert len(sim._heap) == len(doomed) + 1
    assert sim.pending() == 1
    keep.cancel()
    # The floor was reached and tombstones dominate -> compacted away.
    assert sim._dead == 0
    assert sim._heap == []


def test_compaction_mid_run_keeps_ordering():
    """Compact while run() is in flight: a callback cancels a pile of
    pending timers (the retransmission-timer re-arm pattern), and every
    surviving event must still fire, in time order."""
    sim = Simulator()
    fired = []
    n = _COMPACT_MIN_DEAD + 10
    doomed = [sim.schedule(100 + i, fired.append, -i) for i in range(n)]

    def mass_cancel():
        fired.append("cancel")
        for ev in doomed:
            ev.cancel()

    sim.schedule(50, mass_cancel)
    for i in range(5):
        sim.schedule(10_000 + i, fired.append, i)
    sim.run()
    assert fired == ["cancel", 0, 1, 2, 3, 4]
    assert sim.now == 10_004
    assert sim._heap == []


def test_compaction_inside_callback_does_not_break_run_loop():
    """run() holds a local alias of the heap list; compaction rewrites
    it in place, so events scheduled *after* an in-callback compaction
    must still be seen by the same run() call."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(100 + i, lambda: None) for i in range(_COMPACT_MIN_DEAD + 5)]

    def cancel_then_schedule():
        for ev in doomed:
            ev.cancel()
        # Compaction ran inside this callback: the heap cannot still
        # hold all the tombstones.
        assert len(sim._heap) < len(doomed)
        sim.schedule(1, fired.append, "late")

    sim.schedule(10, cancel_then_schedule)
    sim.run()
    assert fired == ["late"]
    assert sim.now == 11


# ----------------------------------------------------------------------
# Handle-less entries (call_after / call_at)
# ----------------------------------------------------------------------

def test_call_after_fires_in_seq_order_with_schedule():
    """Handle-less and handle-returning scheduling share one sequence
    counter, so same-timestamp ties keep program order across both."""
    sim = Simulator()
    fired = []
    sim.call_after(10, fired.append, "a")
    sim.schedule(10, fired.append, "b")
    sim.call_at(10, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_call_after_inside_callback_runs_its_own_callback():
    """A call_after issued from inside a firing callback carries its own
    fn/args, not those of the entry that is running."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_after(5, fired.append, "second")

    sim.call_after(10, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 15


def test_pending_counts_handle_less_entries():
    sim = Simulator()
    sim.call_after(10, lambda: None)
    sim.call_at(20, lambda: None)
    ev = sim.schedule(30, lambda: None)
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
    sim.call_after(10, lambda: None)
    sim.schedule(1000, lambda: None).cancel()
    assert sim.run() == 1
    assert sim.now == 10
    assert sim._heap == []
    assert sim._dead == 0


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
    sim.schedule(10, fired.append, "queued-handle")
    sim.run()
    assert fired == ["first", "queued-call", "queued-handle", "late"]


def test_call_after_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(-1, lambda: None)


def test_mass_timer_churn_is_semantically_clean():
    """The retransmission workload in miniature: every 'ACK' cancels and
    re-arms a timer.  Exactly one timer (the last) must fire, no matter
    how many compactions happened along the way."""
    sim = Simulator()
    fired = []
    state = {"timer": None, "acks": 0}
    total = 3 * _COMPACT_MIN_DEAD

    def timer_fired():
        fired.append(sim.now)

    def on_ack():
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = sim.schedule(100 * US, timer_fired)
        state["acks"] += 1
        if state["acks"] < total:
            sim.call_after(10, on_ack)

    sim.call_after(0, on_ack)
    sim.run()
    assert len(fired) == 1
    assert fired[0] == (total - 1) * 10 + 100 * US
    assert sim.pending() == 0
    assert sim._dead == 0
