"""Chaos harness: RD-path guarantees under randomized composed faults.

Each run composes loss x reorder x duplication x link flap (all seeded,
bit-for-bit reproducible) at the NIC egress and asserts the properties
the RD mode exists to provide: exactly-once in-order delivery, bounded
completion latency, correct Write-Record validity maps, and FLUSH_ERR
surfacing (never silent loss) when a peer is genuinely gone.
"""

import pytest

from repro.bench.harness import VerbsEndpointPair, send_pattern
from repro.core.verbs import QpError, RTS, WcStatus, WrOpcode
from repro.models.costs import zero_cost_model
from repro.obs import spans
from repro.simnet.engine import MS, SEC, US
from repro.simnet.faults import seeded_chaos
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.simnet.trace import Tracer
from repro.transport.ip import IpStack
from repro.transport.rudp import RudpSocket
from repro.transport.udp import UdpStack


def _host_series(registry, name, host):
    """Sum a counter's samples across ports for one host label."""
    return sum(
        s.value for s in registry.collect()
        if s.name == name and dict(s.labels).get("host") == host
    )


def _rudp(testbed, host_index, port=6000, **kwargs):
    host = testbed.hosts[host_index]
    udp = UdpStack(host, IpStack(host))
    return RudpSocket(udp.socket(port), **kwargs)


# ---------------------------------------------------------------------------
# Transport level: the RD lower layer under full chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rudp_exactly_once_in_order_under_chaos(seed):
    # Metrics on: the "faults actually bit" asserts below read the
    # repair counters off the registry instead of poking the endpoints.
    tb = build_testbed(2, costs=zero_cost_model(), metrics=True)
    tb.hosts[0].wr_tracer = Tracer(tb.sim)
    a = _rudp(tb, 0, rto_ns=1 * MS)
    b = _rudp(tb, 1)
    # Data path: <=5% loss x reorder x duplication x one 5 ms link flap.
    tb.set_egress_faults(0, seeded_chaos(
        seed,
        loss=BernoulliLoss(0.05, seed=seed),
        reorder_prob=0.10,
        reorder_hold_ns=300 * US,
        dup_prob=0.05,
        flap_windows=[(10 * MS, 15 * MS)],
    ))
    # ACK path takes independent loss too.
    tb.set_egress_loss(1, BernoulliLoss(0.03, seed=seed + 100))

    msgs = [f"chaos-{seed}-{i}".encode() for i in range(150)]
    got = []
    b.on_message = lambda d, src: got.append((d, tb.sim.now))

    def sender():
        # Pace sends so traffic straddles the flap window.
        for m in msgs:
            a.sendto(m, (1, 6000))
            yield 200 * US

    tb.sim.process(sender())
    tb.sim.run(until=30 * SEC)

    assert [d for d, _ in got] == msgs  # exactly once, in order
    # Bounded completion: recovery after the flap is RTO-driven, so the
    # whole run must finish far inside the backoff cap.
    assert got[-1][1] < 1 * SEC
    # The faults actually bit (otherwise this test proves nothing) —
    # observed through the metrics registry and the WR-span stream, the
    # same surfaces an operator would read.
    reg = tb.registry
    assert _host_series(reg, "transport.rudp.retransmissions", "host0") >= 1
    assert _host_series(reg, "transport.rudp.duplicates_dropped", "host1") >= 1
    rtx_spans = list(spans(tb.hosts[0].wr_tracer, stage="retransmit"))
    assert len(rtx_spans) >= 1
    assert all(r.fields["proto"] == "rudp" for r in rtx_spans)


def test_adaptive_rto_outperforms_fixed_under_loss():
    """The acceptance check: with the same 5% Bernoulli loss and a 5 ms
    initial RTO, the adaptive estimator (fast retransmit + RTO collapse
    to LAN scale) drains the workload at least twice as fast as the old
    fixed-RTO design."""

    def drain_ns(adaptive):
        tb = build_testbed(2, costs=zero_cost_model())
        a = _rudp(tb, 0, rto_ns=5 * MS, adaptive=adaptive)
        b = _rudp(tb, 1)
        tb.set_egress_loss(0, BernoulliLoss(0.05, seed=11))
        done = []
        b.on_message = lambda d, src: done.append(tb.sim.now)
        for i in range(200):
            a.sendto(f"m{i}".encode(), (1, 6000))
        tb.sim.run(until=60 * SEC)
        assert len(done) == 200  # both modes still deliver everything
        return done[-1]

    t_adaptive = drain_ns(adaptive=True)
    t_fixed = drain_ns(adaptive=False)
    assert t_adaptive < t_fixed / 2


# ---------------------------------------------------------------------------
# Verbs level: RD QPs under chaos
# ---------------------------------------------------------------------------


def test_rd_sendrecv_delivers_exactly_once_under_chaos():
    pair = VerbsEndpointPair.build(
        "rd_sendrecv", costs=zero_cost_model(), rd_opts={"rto_ns": 1 * MS},
        metrics=True,
    )
    pair.testbed.set_egress_faults(0, seeded_chaos(
        5,
        loss=BernoulliLoss(0.03, seed=5),
        reorder_prob=0.08,
        reorder_hold_ns=200 * US,
        dup_prob=0.05,
    ))
    out = pair.bandwidth_mbs(16384, messages=40, window=8)
    assert out["received_msgs"] == 40
    assert out["partial_msgs"] == 0
    # Chaos engaged the repair path — read off the registry.
    assert pair.repair_stats()["retransmissions"] >= 1


def test_write_record_validity_maps_stay_correct_under_chaos():
    """Unreliable Write-Record under chaos: whatever arrives, every byte
    range a completion declares valid holds exactly the sender's bytes."""
    pair = VerbsEndpointPair.build("ud_write_record", costs=zero_cost_model())
    pair.testbed.set_egress_faults(0, seeded_chaos(
        9,
        loss=BernoulliLoss(0.08, seed=9),
        reorder_prob=0.10,
        reorder_hold_ns=200 * US,
        dup_prob=0.10,
    ))
    size = 256 * 1024
    sent_payload = send_pattern(0, size)
    completions = []

    def receiver():
        empty = 0
        while True:
            wcs = yield pair.cqs[1].poll_wait(timeout_ns=50 * MS)
            if not wcs:
                empty += 1
                if empty >= 4:
                    return
                continue
            empty = 0
            completions.extend(wcs)

    def sender():
        for _ in range(6):
            pair._post_message(0, size)
            yield 2 * MS

    pair.sim.process(sender())
    rx = pair.sim.process(receiver()).finished
    pair.sim.run_until(rx, limit=120 * SEC)

    checked = 0
    for wc in completions:
        if wc.opcode is not WrOpcode.RDMA_WRITE_RECORD or wc.validity is None:
            continue
        for off, length in wc.validity.ranges():
            assert bytes(pair.sinks[1].view(off, length)) == \
                sent_payload[off:off + length]
            checked += 1
    assert checked >= 1  # at least one validated range, or the test is vacuous


def test_peer_failure_flushes_queued_sends_and_reports():
    """Total blackout toward the peer: every posted WR must come back as
    a FLUSH_ERR completion (never silently vanish), the QP must stay
    usable toward other peers (report-don't-kill, SIV.B), and further
    sends to the dead peer must be refused."""
    pair = VerbsEndpointPair.build(
        "rd_sendrecv",
        costs=zero_cost_model(),
        rd_opts={"rto_ns": 500 * US, "max_retries": 3},
    )
    pair.testbed.set_egress_loss(0, BernoulliLoss(1.0, seed=1))  # blackout
    for _ in range(10):
        pair._post_message(0, 8192, signaled=True)

    flushed = []

    def drain():
        empty = 0
        while len(flushed) < 10:
            wcs = yield pair.cqs[0].poll_wait(timeout_ns=50 * MS)
            if not wcs:
                empty += 1
                if empty >= 10:
                    return
                continue
            empty = 0
            flushed.extend(wcs)

    done = pair.sim.process(drain()).finished
    pair.sim.run_until(done, limit=60 * SEC)

    assert len(flushed) == 10
    assert all(wc.status is WcStatus.FLUSHED for wc in flushed)
    qp = pair.qps[0]
    assert qp.rd_flushed_wrs == 10
    assert qp.failed_peers == {pair.qps[1].address}
    assert qp.state == RTS  # datagram QPs report errors, they don't die
    assert qp.terminate_reason  # ...but the error is visible
    with pytest.raises(QpError):
        pair._post_message(0, 8192)
