"""Unit tests for the serialized CPU resource."""

import numpy
import pytest

from repro.simnet.cpu import CpuResource
from repro.simnet.engine import Simulator


def test_work_executes_after_cost():
    sim = Simulator()
    cpu = CpuResource(sim)
    done = {}
    cpu.submit(500, lambda: done.setdefault("t", sim.now))
    sim.run()
    assert done["t"] == 500


def test_fifo_serialization():
    sim = Simulator()
    cpu = CpuResource(sim)
    out = []
    cpu.submit(100, lambda: out.append(("a", sim.now)))
    cpu.submit(200, lambda: out.append(("b", sim.now)))
    cpu.submit(50, lambda: out.append(("c", sim.now)))
    sim.run()
    assert out == [("a", 100), ("b", 300), ("c", 350)]


def test_queueing_behind_busy_cpu():
    sim = Simulator()
    cpu = CpuResource(sim)
    out = []
    cpu.submit(1_000, lambda: None)
    # Submitted later in sim time but while CPU is busy.
    sim.call_at(500, lambda: cpu.submit(100, lambda: out.append(sim.now)))
    sim.run()
    assert out == [1_100]


def test_idle_cpu_starts_immediately():
    sim = Simulator()
    cpu = CpuResource(sim)
    out = []
    sim.call_at(5_000, lambda: cpu.submit(10, lambda: out.append(sim.now)))
    sim.run()
    assert out == [5_010]


def test_zero_cost_preserves_order():
    sim = Simulator()
    cpu = CpuResource(sim)
    out = []
    cpu.submit(0, out.append, 1)
    cpu.submit(0, out.append, 2)
    sim.run()
    assert out == [1, 2]


def test_negative_cost_rejected():
    sim = Simulator()
    cpu = CpuResource(sim)
    with pytest.raises(ValueError):
        cpu.submit(-1, lambda: None)


def test_busy_accounting_and_utilization():
    sim = Simulator()
    cpu = CpuResource(sim)
    cpu.submit(300, lambda: None)
    cpu.submit(200, lambda: None)
    sim.run()
    assert cpu.busy_ns == 500
    assert cpu.work_items == 2
    assert cpu.utilization(1_000) == 0.5
    assert cpu.utilization(0) == 0.0
    assert cpu.utilization(100) == 1.0  # capped


def test_charge_delays_later_work():
    sim = Simulator()
    cpu = CpuResource(sim)
    out = []
    cpu.charge(1_000)
    cpu.submit(10, lambda: out.append(sim.now))
    sim.run()
    assert out == [1_010]


def test_free_at_tracks_backlog():
    sim = Simulator()
    cpu = CpuResource(sim)
    assert cpu.free_at == 0
    cpu.submit(400, lambda: None)
    assert cpu.free_at == 400
    sim.run()
    assert cpu.free_at == sim.now


@pytest.mark.parametrize("cost", [100.9, numpy.int64(100)], ids=["float", "int64"])
def test_non_int_costs_charge_their_int_value(cost):
    sim = Simulator()
    cpu = CpuResource(sim)
    done = cpu.submit(cost, lambda: None)
    assert done == 100 and type(done) is int
    assert cpu.charge(cost) == 200
    assert cpu.busy_ns == 200 and type(cpu.busy_ns) is int
    assert cpu.free_at == 200 and type(cpu.free_at) is int
    sim.run()
    assert sim.now == 200 and type(sim.now) is int
