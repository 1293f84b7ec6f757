"""Fault-model tests: composition semantics, loss-model statistics
uniformity, and NIC egress integration."""

import pytest

from repro.simnet.engine import MS, SEC, US
from repro.simnet.faults import (
    DelayJitter, Duplicate, FaultPipeline, LinkFlap,
    Reorder, seeded_chaos,
)
from repro.simnet.loss import (
    BernoulliLoss, ExplicitLoss, GilbertElliottLoss, NoLoss, PatternLoss,
)
from repro.simnet.packet import Frame
from repro.transport.ip import IpStack
from repro.transport.udp import UdpStack


class _Payload:
    PROTO = "x"


def _frame(size=1000):
    return Frame(src=0, dst=1, payload=_Payload(), payload_size=size)


# ----------------------------------------------------------------------
# Loss models: the uniform seen/dropped interface
# ----------------------------------------------------------------------

class TestLossModelUniformity:
    MODELS = [
        NoLoss(),
        BernoulliLoss(0.5, seed=1),
        GilbertElliottLoss(0.2, 0.5, seed=1),
        PatternLoss(3),
        ExplicitLoss([2, 4]),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_every_model_counts_seen_and_dropped(self, model):
        model.reset()
        for _ in range(50):
            model.should_drop(_frame())
        assert model.seen == 50
        assert 0 <= model.dropped <= 50

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_reset_restores_counters_and_decisions(self, model):
        model.reset()
        first = [model.should_drop(_frame()) for _ in range(40)]
        model.reset()
        assert model.seen == 0 and model.dropped == 0
        second = [model.should_drop(_frame()) for _ in range(40)]
        assert first == second  # seeded: bit-for-bit reproducible

    def test_explicit_loss_seen_counter(self):
        model = ExplicitLoss([1, 3])
        decisions = [model.should_drop(_frame()) for _ in range(4)]
        assert decisions == [True, False, True, False]
        assert model.seen == 4 and model.dropped == 2


class TestGilbertElliott:
    def test_stationary_rate_matches_empirical(self):
        model = GilbertElliottLoss(p_gb=0.05, p_bg=0.4, loss_bad=0.8, seed=3)
        n = 200_000
        for _ in range(n):
            model.should_drop(_frame())
        empirical = model.dropped / model.seen
        expected = model.average_loss_rate()
        assert expected == pytest.approx(0.05 / 0.45 * 0.8)
        assert empirical == pytest.approx(expected, rel=0.05)

    def test_degenerate_chain_reports_current_state(self):
        model = GilbertElliottLoss(p_gb=0.0, p_bg=0.0, loss_bad=0.9)
        assert model.average_loss_rate() == 0.0  # starts (and stays) good
        model.bad = True
        assert model.average_loss_rate() == 0.9


class TestPatternLossOffsets:
    def test_zero_offset_drops_every_nth(self):
        model = PatternLoss(3)
        drops = [i for i in range(1, 13) if model.should_drop(_frame())]
        assert drops == [3, 6, 9, 12]

    def test_offset_shifts_the_pattern(self):
        model = PatternLoss(3, offset=2)
        drops = [i for i in range(1, 13) if model.should_drop(_frame())]
        assert drops == [5, 8, 11]

    def test_offset_protects_the_head(self):
        # every_nth=1 with an offset: everything after the offset drops.
        model = PatternLoss(1, offset=5)
        drops = [i for i in range(1, 9) if model.should_drop(_frame())]
        assert drops == [6, 7, 8]

    def test_offset_larger_than_run_drops_nothing(self):
        model = PatternLoss(2, offset=100)
        assert not any(model.should_drop(_frame()) for _ in range(50))
        assert model.seen == 50 and model.dropped == 0

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            PatternLoss(3, offset=-1)


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------

class TestFaultModels:
    def test_loss_models_are_fault_stages(self):
        fault = ExplicitLoss([2])
        f = _frame()
        assert fault.admit(f, 0) == [(0, f)]
        assert fault.admit(f, 0) == []
        assert fault.admit(f, 0) == [(0, f)]
        assert fault.seen == 3 and fault.dropped == 1

    def test_reorder_holds_selected_frames(self):
        fault = Reorder(prob=1.0, hold_ns=300 * US, seed=1)
        f = _frame()
        assert fault.admit(f, 0) == [(300 * US, f)]
        assert fault.reordered == 1
        fault = Reorder(prob=0.0, hold_ns=300 * US)
        assert fault.admit(f, 0) == [(0, f)]

    def test_duplicate_emits_two_copies(self):
        fault = Duplicate(prob=1.0, seed=1)
        f = _frame()
        assert fault.admit(f, 0) == [(0, f), (0, f)]
        assert fault.duplicated == 1

    def test_delay_jitter_bounds(self):
        fault = DelayJitter(jitter_ns=100, spike_ns=10_000, spike_prob=0.5, seed=2)
        delays = [fault.admit(_frame(), 0)[0][0] for _ in range(200)]
        assert all(0 <= d <= 100 + 10_000 for d in delays)
        assert fault.spikes > 0 and max(delays) > 10_000
        assert min(delays) <= 100  # some frames took no spike

    def test_link_flap_windows(self):
        flap = LinkFlap.single(down_ns=10 * MS, duration_ns=5 * MS)
        f = _frame()
        assert flap.admit(f, 9 * MS) == [(0, f)]
        assert flap.admit(f, 12 * MS) == []
        assert flap.admit(f, 15 * MS) == [(0, f)]  # up bound is exclusive
        assert flap.dropped == 1

    def test_link_flap_periodic(self):
        flap = LinkFlap.periodic(
            first_down_ns=1 * MS, duration_ns=1 * MS, period_ns=10 * MS, repeats=3
        )
        assert [flap.is_down(t * MS) for t in (0, 1, 2, 11, 21, 31)] == [
            False, True, False, True, True, False,
        ]

    @pytest.mark.parametrize("make", [
        lambda: Reorder(prob=0.4, hold_ns=300, seed=3),
        lambda: Duplicate(prob=0.4, seed=3),
        lambda: DelayJitter(jitter_ns=100, spike_ns=1_000, spike_prob=0.2, seed=3),
    ], ids=["Reorder", "Duplicate", "DelayJitter"])
    def test_reset_replays_the_same_emissions(self, make):
        fault = make()
        f = _frame()
        first = [fault.admit(f, 0) for _ in range(40)]
        fault.reset()
        assert fault.seen == 0 and all(
            getattr(fault, row[2]) == 0 for row in fault.METRICS
        )
        assert [fault.admit(f, 0) for _ in range(40)] == first

    def test_flap_validation(self):
        with pytest.raises(ValueError):
            LinkFlap([(5, 5)])
        with pytest.raises(ValueError):
            LinkFlap.periodic(0, 1, 0, 1)


class TestFaultPipeline:
    def test_delays_accumulate_across_stages(self):
        pipe = FaultPipeline(
            Reorder(prob=1.0, hold_ns=100, seed=1),
            Reorder(prob=1.0, hold_ns=50, seed=2),
        )
        f = _frame()
        assert pipe.admit(f, 0) == [(150, f)]

    def test_drop_short_circuits(self):
        dup = Duplicate(prob=1.0, seed=1)
        pipe = FaultPipeline(ExplicitLoss([1]), dup)
        assert pipe.admit(_frame(), 0) == []
        assert pipe.dropped == 1
        assert dup.seen == 0  # never reached

    def test_duplicate_then_loss_can_halve(self):
        # Both copies offered to the second stage independently.
        pipe = FaultPipeline(Duplicate(prob=1.0, seed=1), ExplicitLoss([1]))
        f = _frame()
        assert pipe.admit(f, 0) == [(0, f)]  # one copy dropped, one lives

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            FaultPipeline()

    def test_reset_cascades(self):
        loss = ExplicitLoss([1])
        pipe = FaultPipeline(loss)
        pipe.admit(_frame(), 0)
        pipe.reset()
        assert pipe.seen == 0 and loss.seen == 0

    def test_seeded_chaos_builder(self):
        pipe = seeded_chaos(
            seed=7,
            loss=BernoulliLoss(0.05, seed=7),
            reorder_prob=0.1,
            reorder_hold_ns=1000,
            dup_prob=0.1,
            jitter_ns=100,
            flap_windows=[(0, 10)],
        )
        assert len(pipe.stages) == 5
        with pytest.raises(ValueError):
            seeded_chaos(seed=1)


# ----------------------------------------------------------------------
# NIC egress integration
# ----------------------------------------------------------------------

class TestNicIntegration:
    def _udp_pair(self, tb):
        socks = []
        for h in tb.hosts:
            ip = IpStack(h)
            udp = UdpStack(h, ip)
            socks.append(udp.socket(5000))
        return socks

    def test_duplication_delivers_two_copies(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        zero_testbed.set_egress_faults(0, Duplicate(prob=1.0, seed=1))
        got = []
        b.on_datagram = lambda d, src: got.append(d)
        a.sendto(b"twice", (1, 5000))
        zero_testbed.sim.run(until=1 * SEC)
        assert got == [b"twice", b"twice"]
        assert zero_testbed.hosts[0].port.dup_frames == 1

    def test_flap_drops_and_counts(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        zero_testbed.set_egress_faults(0, LinkFlap.single(0, 10 * MS))
        got = []
        b.on_datagram = lambda d, src: got.append(d)
        a.sendto(b"lost", (1, 5000))
        zero_testbed.sim.run(until=1 * SEC)
        assert got == []
        assert zero_testbed.hosts[0].port.drops_fault == 1

    def test_held_frames_arrive_later_and_reorder(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        # Hold exactly the first frame; a later send overtakes it.
        zero_testbed.set_egress_faults(0, Reorder(prob=1.0, hold_ns=1 * MS, seed=1))
        got = []
        b.on_datagram = lambda d, src: got.append((d, zero_testbed.sim.now))
        a.sendto(b"first", (1, 5000))

        def send_second():
            zero_testbed.set_egress_faults(0, None)  # unimpeded
            a.sendto(b"second", (1, 5000))

        zero_testbed.sim.call_at(zero_testbed.sim.now + 100 * US, send_second)
        zero_testbed.sim.run(until=1 * SEC)
        assert [d for d, _ in got] == [b"second", b"first"]
        assert got[1][1] >= 1 * MS
        assert zero_testbed.hosts[0].port.held_frames == 1
