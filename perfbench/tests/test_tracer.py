"""Tests for the benchmark's layer tracer and its drivers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import contextlib

import pytest

import tracer as tracing
from repro.bench.harness import VerbsEndpointPair
from repro.simnet.cpu import CpuResource
from workloads import make_payload, pingpong_leg, stream_leg


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def nested(clock, t):
    """outer: 10 ns, then inner (30 ns), then 5 ns more."""

    def inner():
        clock.now += 30

    inner_span = t.wrap(inner, "b")

    def outer():
        clock.now += 10
        inner_span()
        clock.now += 5

    return t.wrap(outer, "a")


def test_synthetic_nested_call_self_time():
    clock = FakeClock()
    t = tracing.LayerTracer(clock)
    outer = nested(clock, t)
    with t.measure():
        clock.now += 1
        outer()
        clock.now += 2
    assert t.self_ns == {"a": 15, "b": 30}
    assert t.calls == {"a": 1, "b": 1}
    assert t.total_ns == 48
    assert [s[0] for s in t.spans] == ["b", "a"]
    assert t.spans[1][1:] == [1, 46, 0]


def test_span_cost_is_charged_to_the_callee():
    clock = FakeClock()
    t = tracing.LayerTracer(clock, span_cost_ns=4)
    outer = nested(clock, t)
    with t.measure():
        outer()
    # inner's duration grows by 4 ns and outer's by 4 ns: the caller's
    # self time is unchanged, and the sum still equals outer's duration.
    assert t.self_ns == {"a": 15, "b": 34}


def test_not_recording_is_transparent():
    clock = FakeClock()
    t = tracing.LayerTracer(clock)
    outer = nested(clock, t)
    outer()
    assert t.self_ns == {"a": 0, "b": 0} and t.calls == {"a": 0, "b": 0}
    assert t.spans == []


def test_layer_of_module():
    assert tracing.layer_of_module("repro.transport.tcp.connection") == "transport.tcp"
    assert tracing.layer_of_module("repro.simnet.loss") == "simnet.faults"
    assert tracing.layer_of_module("repro.models.costs") == "other"
    assert tracing.layer_of_module("workloads") == "driver"


def run_leg(leg, traced, seed=1):
    payload = make_payload(seed)
    if not traced:
        return leg.run(payload, contextlib.nullcontext), None
    t = tracing.install(tracing.LayerTracer())
    try:
        return leg.run(payload, t.measure), t
    finally:
        t.uninstall()


LEGS = [
    pingpong_leg("ud_sendrecv.64", "ud_sendrecv", 64, 5),
    pingpong_leg("rc_rdma_write.1024", "rc_rdma_write", 1024, 5),
    stream_leg("rd_sendrecv.chaos", "rd_sendrecv", 16384, 20, 16, chaos=True),
    stream_leg("ud_write_record.loss1", "ud_write_record", 262144, 6, 64, loss_rate=0.01),
    stream_leg("rc_sendrecv.64k", "rc_sendrecv", 65536, 4, 64),
]


@pytest.mark.parametrize("leg", LEGS, ids=lambda leg: leg.name)
def test_traced_run_matches_untraced_and_self_times_sum_to_total(leg):
    plain, _ = run_leg(leg, traced=False)
    traced, t = run_leg(leg, traced=True)
    assert traced.outputs == plain.outputs
    assert traced.counts == plain.counts
    assert not plain.errors and not traced.errors
    # Every nanosecond of the measured phase belongs to some span except
    # the few statements around run_until.
    spanned = sum(t.self_ns.values())
    assert spanned <= t.total_ns
    assert (t.total_ns - spanned) / t.total_ns < 0.01
    # The wrappers were removed again.
    assert "span" not in CpuResource.submit.__code__.co_name


@pytest.mark.parametrize("leg", LEGS[:3], ids=lambda leg: leg.name)
def test_outputs_do_not_depend_on_the_seed(leg):
    a, _ = run_leg(leg, traced=False, seed=1)
    b, _ = run_leg(leg, traced=False, seed=99)
    assert a.outputs == b.outputs and a.counts == b.counts


def test_pingpong_driver_matches_harness_latency():
    leg = pingpong_leg("ud_write_record.64", "ud_write_record", 64, 8)
    result, _ = run_leg(leg, traced=False)
    pair = VerbsEndpointPair.build("ud_write_record")
    assert result.outputs["one_way_us"] == pair.pingpong_latency_us(64, iters=8, warmup=3)


def test_stream_driver_matches_harness_bandwidth():
    leg = stream_leg("ud_sendrecv.64k", "ud_sendrecv", 65536, 12, 64)
    result, _ = run_leg(leg, traced=False)
    pair = VerbsEndpointPair.build("ud_sendrecv")
    harness = pair.bandwidth_mbs(65536, messages=12, window=64)
    assert result.outputs["sim_mbs"] == pytest.approx(harness["mbs"], rel=1e-12)
    assert result.outputs["complete"] == harness["received_msgs"]


def test_removing_noop_callbacks_moves_events_per_frame_not_frames(monkeypatch):
    """CpuResource.charge schedules a no-op completion event.  Dropping
    it lowers events per frame while every simulated output, and the
    frame count that ``frames_per_s`` divides by wall time, stay put."""
    leg = stream_leg("rc_sendrecv.64k", "rc_sendrecv", 65536, 4, 64)
    before, _ = run_leg(leg, traced=False)

    def charge_without_event(cpu, cost_ns):
        cost_ns = int(cost_ns)
        cpu._free_at = max(cpu.sim.now, cpu._free_at) + cost_ns
        cpu.busy_ns += cost_ns
        cpu.work_items += 1
        return cpu._free_at

    monkeypatch.setattr(CpuResource, "charge", charge_without_event)
    after, _ = run_leg(leg, traced=False)
    assert after.outputs == before.outputs
    assert after.counts["frames"] == before.counts["frames"]
    assert after.counts["events"] < before.counts["events"]
