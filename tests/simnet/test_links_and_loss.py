"""Tests for frames, links, NIC queues, loss models, switch, topology."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.faults import Duplicate
from repro.simnet.link import Link
from repro.simnet.loss import (
    BernoulliLoss, ExplicitLoss, GilbertElliottLoss, NoLoss, PatternLoss,
)
from repro.simnet.nic import NicPort, cable
from repro.simnet.packet import ETH_MIN_PAYLOAD, ETH_OVERHEAD, Frame, serialization_ns
from repro.simnet.switch import Switch
from repro.simnet.topology import build_testbed
from repro.simnet.trace import Tracer


class _Payload:
    PROTO = "x"


def _frame(src=0, dst=1, size=1000):
    return Frame(src=src, dst=dst, payload=_Payload(), payload_size=size)


class TestFrame:
    def test_wire_size_includes_overhead(self):
        assert _frame(size=1000).wire_size == 1000 + ETH_OVERHEAD

    def test_minimum_frame_padding(self):
        assert _frame(size=1).wire_size == ETH_MIN_PAYLOAD + ETH_OVERHEAD

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            _frame(size=-1)

    def test_serialization_time(self):
        # 1250 bytes at 10 Gb/s = 1 us.
        assert serialization_ns(1250, 10e9) == 1000

    def test_serialization_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            serialization_ns(100, 0)


class TestLink:
    def test_attach_once(self):
        link = Link()
        link.attach("a", "b")
        with pytest.raises(RuntimeError):
            link.attach("a", "b")

    def test_peer_of(self):
        link = Link()
        link.attach("a", "b")
        assert link.peer_of("a") == "b"
        assert link.peer_of("b") == "a"
        with pytest.raises(ValueError):
            link.peer_of("c")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Link(bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(delay_ns=-1)
        with pytest.raises(ValueError):
            Link(mtu=100)


class _Sink:
    def __init__(self):
        self.got = []

    def on_frame(self, frame, port):
        self.got.append(frame)


def _two_ports(sim, bandwidth=10e9, delay=500, queue=1000):
    a_owner, b_owner = _Sink(), _Sink()
    pa = NicPort(sim, a_owner, "a", queue_frames=queue)
    pb = NicPort(sim, b_owner, "b", queue_frames=queue)
    cable(sim, pa, pb, Link(bandwidth_bps=bandwidth, delay_ns=delay))
    return pa, pb, a_owner, b_owner


class TestNic:
    def test_delivery_timing(self):
        sim = Simulator()
        pa, pb, _, sink = _two_ports(sim, bandwidth=10e9, delay=500)
        f = _frame(size=1212)  # 1250 on wire -> 1000 ns serialization
        pa.enqueue(f)
        sim.run()
        assert sink.got == [f]
        assert sim.now == 1000 + 500

    def test_back_to_back_serialization(self):
        sim = Simulator()
        pa, pb, _, sink = _two_ports(sim, bandwidth=10e9, delay=0)
        for _ in range(3):
            pa.enqueue(_frame(size=1212))
        sim.run()
        assert len(sink.got) == 3
        assert sim.now == 3000  # three serializations, no propagation

    def test_queue_overflow_drops(self):
        sim = Simulator()
        pa, pb, _, sink = _two_ports(sim, queue=2)
        for _ in range(5):
            pa.enqueue(_frame())
        sim.run()
        # one in flight immediately + 2 queued = 3 delivered.
        assert len(sink.got) == 3
        assert pa.drops_queue_full == 2

    def test_loss_model_applied_before_wire(self):
        sim = Simulator()
        pa, pb, _, sink = _two_ports(sim)
        pa.set_loss_model(ExplicitLoss([1, 3]))
        for _ in range(4):
            pa.enqueue(_frame())
        sim.run()
        assert len(sink.got) == 2
        assert pa.drops_loss_model == 2
        assert pa.tx_frames == 2  # dropped frames never consumed wire time

    def test_port_with_nothing_attached_calls_nothing_per_frame(self, monkeypatch):
        sim = Simulator()
        pa, pb, _, sink = _two_ports(sim)
        assert pa.injector is None

        def unexpected(*args):
            raise AssertionError("a port with nothing attached made a per-frame call")

        monkeypatch.setattr(NicPort, "_admit", unexpected)
        for _ in range(3):
            assert pa.enqueue(_frame())
        sim.run()
        assert len(sink.got) == 3 and pa.offered == 3

    def test_one_slot_holds_one_kind_of_model(self):
        sim = Simulator()
        pa, _, _, _ = _two_ports(sim)
        loss = ExplicitLoss([1])
        pa.set_loss_model(loss)
        with pytest.raises(ValueError):
            pa.set_fault_model(Duplicate(prob=1.0))
        pa.set_fault_model(None)  # no fault model to detach
        assert pa.injector is loss and pa.fault_model is None
        pa.set_loss_model(None)
        pa.set_fault_model(Duplicate(prob=1.0))
        with pytest.raises(ValueError):
            pa.set_loss_model(ExplicitLoss([1]))

    def test_counters(self):
        sim = Simulator()
        pa, pb, _, _ = _two_ports(sim)
        f = _frame(size=2000)
        pa.enqueue(f)
        sim.run()
        assert pa.tx_frames == 1 and pa.tx_bytes == f.wire_size
        assert pb.rx_frames == 1 and pb.rx_bytes == f.wire_size

    def test_uncabled_port_rejects(self):
        sim = Simulator()
        port = NicPort(sim, _Sink(), "lonely")
        with pytest.raises(RuntimeError):
            port.enqueue(_frame())

    def test_tracer_records_tx_rx(self):
        sim = Simulator()
        pa, pb, _, _ = _two_ports(sim)
        sim.tracer = tracer = Tracer(sim)
        pa.enqueue(_frame())
        sim.run()
        assert tracer.count("tx") == 1
        assert tracer.count("rx") == 1


class TestLossModels:
    def test_no_loss(self):
        model = NoLoss()
        assert not any(model.should_drop(_frame()) for _ in range(100))

    def test_bernoulli_rate_statistics(self):
        model = BernoulliLoss(0.1, seed=42)
        drops = sum(model.should_drop(_frame()) for _ in range(20_000))
        assert 0.08 < drops / 20_000 < 0.12

    def test_bernoulli_reproducible(self):
        a = BernoulliLoss(0.3, seed=7)
        b = BernoulliLoss(0.3, seed=7)
        pattern_a = [a.should_drop(_frame()) for _ in range(500)]
        pattern_b = [b.should_drop(_frame()) for _ in range(500)]
        assert pattern_a == pattern_b

    def test_bernoulli_reset(self):
        model = BernoulliLoss(0.5, seed=3)
        first = [model.should_drop(_frame()) for _ in range(100)]
        model.reset()
        second = [model.should_drop(_frame()) for _ in range(100)]
        assert first == second
        assert model.seen == 100

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_zero_rate_never_drops(self):
        model = BernoulliLoss(0.0, seed=1)
        assert not any(model.should_drop(_frame()) for _ in range(1000))

    def test_gilbert_elliott_burstiness(self):
        model = GilbertElliottLoss(p_gb=0.01, p_bg=0.3, loss_bad=1.0, seed=5)
        drops = [model.should_drop(_frame()) for _ in range(50_000)]
        rate = sum(drops) / len(drops)
        # Stationary rate ~ p_gb/(p_gb+p_bg) = 0.032
        assert 0.02 < rate < 0.05
        # Bursty: consecutive drops far likelier than independent model.
        pairs = sum(1 for i in range(1, len(drops)) if drops[i] and drops[i - 1])
        assert pairs > sum(drops) * rate * 2

    def test_gilbert_average_loss_rate(self):
        model = GilbertElliottLoss(p_gb=0.01, p_bg=0.99, loss_bad=1.0)
        assert model.average_loss_rate() == pytest.approx(0.01, abs=0.001)

    def test_pattern_loss(self):
        model = PatternLoss(every_nth=3)
        drops = [model.should_drop(_frame()) for _ in range(9)]
        assert drops == [False, False, True] * 3

    def test_explicit_loss(self):
        model = ExplicitLoss([2, 5])
        drops = [model.should_drop(_frame()) for _ in range(6)]
        assert drops == [False, True, False, False, True, False]

    def test_explicit_loss_validates_indices(self):
        with pytest.raises(ValueError):
            ExplicitLoss([0])


class TestSwitchAndTopology:
    def test_switch_forwards_to_correct_port(self):
        tb = build_testbed(3)
        sink = {}

        class H:
            def __init__(self, idx):
                self.idx = idx

            def on_packet(self, payload, frame):
                sink.setdefault(self.idx, []).append(frame)

        for i, h in enumerate(tb.hosts):
            h.register_protocol("x", H(i))
        tb.hosts[0].send_frame(Frame(src=0, dst=2, payload=_Payload(), payload_size=100))
        tb.sim.run()
        assert 2 in sink and 1 not in sink
        assert tb.switch.forwarded == 1

    def test_unroutable_counted(self):
        tb = build_testbed(2)
        tb.hosts[0].send_frame(Frame(src=0, dst=99, payload=_Payload(), payload_size=10))
        tb.sim.run()
        assert tb.switch.unroutable == 1

    def test_direct_cable_topology(self):
        tb = build_testbed(2, use_switch=False)
        got = []

        class H:
            def on_packet(self, payload, frame):
                got.append(frame)

        tb.hosts[1].register_protocol("x", H())
        tb.hosts[0].send_frame(_frame())
        tb.sim.run()
        assert len(got) == 1
        assert tb.switch is None

    def test_direct_cable_needs_two_hosts(self):
        with pytest.raises(ValueError):
            build_testbed(3, use_switch=False)

    def test_minimum_hosts(self):
        with pytest.raises(ValueError):
            build_testbed(1)

    def test_egress_loss_injection_point(self):
        tb = build_testbed(2)
        tb.set_egress_loss(0, ExplicitLoss([1]))
        got = []

        class H:
            def on_packet(self, payload, frame):
                got.append(frame)

        tb.hosts[1].register_protocol("x", H())
        tb.hosts[0].send_frame(_frame())
        tb.hosts[0].send_frame(_frame())
        tb.sim.run()
        assert len(got) == 1

    def test_hosts_share_cost_model(self):
        tb = build_testbed(2)
        assert tb.hosts[0].costs is tb.hosts[1].costs is tb.costs

    def test_broadcast_floods_other_ports(self):
        tb = build_testbed(3)
        got = []

        class H:
            def __init__(self, i):
                self.i = i

            def on_packet(self, payload, frame):
                got.append(self.i)

        for i, h in enumerate(tb.hosts):
            h.register_protocol("x", H(i))
        tb.hosts[0].send_frame(Frame(src=0, dst=-1, payload=_Payload(), payload_size=64))
        tb.sim.run()
        assert sorted(got) == [1, 2]
