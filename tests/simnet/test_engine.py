"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import MS, SEC, US, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        out = []
        sim.at(30, out.append, "c")
        sim.at(10, out.append, "a")
        sim.at(20, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        out = []
        for tag in "abcd":
            sim.at(5, out.append, tag)
        sim.run()
        assert out == ["a", "b", "c", "d"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = {}
        sim.at(1234, lambda: seen.setdefault("t", sim.now))
        sim.run()
        assert seen["t"] == 1234
        assert sim.now == 1234

    def test_at_absolute_time(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        seen = {}
        sim.at(500, lambda: seen.setdefault("t", sim.now))
        sim.run()
        assert seen["t"] == 500

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        out = []
        ev = sim.at(10, out.append, "x")
        ev.cancel()
        sim.run()
        assert out == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        out = []
        ev = sim.at(10, out.append, "x")
        sim.run()
        ev.cancel()  # must not raise
        assert out == ["x"]

    def test_run_until_time_bound(self):
        sim = Simulator()
        out = []
        sim.at(10, out.append, "a")
        sim.at(100, out.append, "b")
        sim.run(until=50)
        assert out == ["a"]
        assert sim.now == 50

    def test_run_until_advances_clock_to_bound_when_idle(self):
        sim = Simulator()
        sim.run(until=999)
        assert sim.now == 999

    def test_run_until_before_now_raises_and_keeps_clock(self):
        sim = Simulator()
        out = []
        sim.call_at(100, out.append, 100)
        sim.call_at(1000, out.append, 1000)
        sim.run(until=500)
        with pytest.raises(SimulationError):
            sim.run(until=200)
        assert sim.now == 500
        sim.run()
        assert out == [100, 1000] and sim.now == 1000

    def test_run_until_now_leaves_clock_alone(self):
        sim = Simulator()
        sim.call_at(1000, lambda: None)
        sim.run(until=500)
        assert sim.run(until=500) == 0
        assert sim.now == 500
        sim.run()
        sim.run(until=sim.now)
        assert sim.now == 1000

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        out = []

        def first():
            sim.at(sim.now + 5, out.append, "second")

        sim.at(1, first)
        sim.run()
        assert out == ["second"]

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.at(10, lambda: None)
        sim.at(20, lambda: None)
        e1.cancel()
        assert sim.pending() == 1

    def test_time_unit_constants(self):
        assert US == 1_000 and MS == 1_000_000 and SEC == 1_000_000_000


class TestFutures:
    def test_future_resolves_waiters_via_queue(self):
        sim = Simulator()
        fut = sim.future()
        out = []
        fut.add_callback(out.append)
        fut.set_result(42)
        assert out == []  # not synchronous
        sim.run()
        assert out == [42]

    def test_callback_added_after_resolution_still_fires(self):
        sim = Simulator()
        fut = sim.future()
        fut.set_result("v")
        out = []
        fut.add_callback(out.append)
        sim.run()
        assert out == ["v"]

    def test_double_resolution_rejected(self):
        sim = Simulator()
        fut = sim.future()
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        fut = sim.future()
        out = []
        for _ in range(3):
            fut.add_callback(out.append)
        fut.set_result("x")
        sim.run()
        assert out == ["x"] * 3

    def test_run_until_returns_value(self):
        sim = Simulator()
        fut = sim.future()
        sim.at(100, fut.set_result, "done")
        assert sim.run_until(fut) == "done"

    def test_run_until_raises_on_drained_queue(self):
        sim = Simulator()
        fut = sim.future()
        with pytest.raises(SimulationError):
            sim.run_until(fut)

    def test_run_until_raises_past_limit(self):
        sim = Simulator()
        fut = sim.future()
        sim.at(10_000, fut.set_result, 1)
        with pytest.raises(SimulationError):
            sim.run_until(fut, limit=1_000)


class TestProcesses:
    def test_process_sleeps_with_int_yield(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 100
            trace.append(sim.now)
            yield 50
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0, 100, 150]

    def test_process_waits_on_future(self):
        sim = Simulator()
        fut = sim.future()
        got = []

        def proc():
            value = yield fut
            got.append((sim.now, value))

        sim.process(proc())
        sim.at(77, fut.set_result, "ok")
        sim.run()
        assert got == [(77, "ok")]

    def test_process_return_value_exposed(self):
        sim = Simulator()

        def proc():
            yield 1
            return 99

        p = sim.process(proc())
        sim.run()
        assert p.result == 99
        assert p.finished.done and p.finished.value == 99

    def test_process_waits_on_other_process(self):
        sim = Simulator()

        def child():
            yield 100
            return "child-result"

        def parent():
            value = yield sim.process(child())
            return (sim.now, value)

        p = sim.process(parent())
        sim.run()
        assert p.result == (100, "child-result")

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_int_yield_raises(self):
        sim = Simulator()

        def proc():
            yield 10
            yield -1

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()
        assert sim.now == 10
