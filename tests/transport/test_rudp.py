"""Reliable-UDP (RD lower layer) tests."""

import pytest

from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.transport.ip import IpStack
from repro.transport.rudp import RUDP_MAX_PAYLOAD, RudpError, RudpSocket
from repro.transport.udp import UdpStack


@pytest.fixture
def rudp_pair(zero_testbed):
    socks = []
    for h in zero_testbed.hosts:
        ip = IpStack(h)
        udp = UdpStack(h, ip)
        socks.append(RudpSocket(udp.socket(6000), rto_ns=2 * MS))
    return zero_testbed, socks[0], socks[1]


def test_basic_delivery_preserves_boundaries(rudp_pair):
    tb, a, b = rudp_pair
    got = []
    b.on_message = lambda d, src: got.append(d)
    a.sendto(b"first", (1, 6000))
    a.sendto(b"second", (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == [b"first", b"second"]


def test_lost_message_retransmitted(rudp_pair):
    tb, a, b = rudp_pair
    tb.set_egress_loss(0, ExplicitLoss([1]))
    got = []
    b.on_message = lambda d, src: got.append(d)
    a.sendto(b"precious", (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == [b"precious"]
    assert a.retransmissions >= 1


def test_in_order_delivery_under_loss(rudp_pair):
    tb, a, b = rudp_pair
    tb.set_egress_loss(0, BernoulliLoss(0.15, seed=4))
    got = []
    b.on_message = lambda d, src: got.append(d)
    msgs = [f"msg-{i}".encode() for i in range(200)]
    for m in msgs:
        a.sendto(m, (1, 6000))
    tb.sim.run(until=60 * SEC)
    assert got == msgs  # exactly once, in order


def test_duplicate_suppression(rudp_pair):
    tb, a, b = rudp_pair
    # Drop the first ACK so the sender retransmits a delivered message.
    tb.set_egress_loss(1, ExplicitLoss([1]))
    got = []
    b.on_message = lambda d, src: got.append(d)
    a.sendto(b"once", (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == [b"once"]
    assert b.duplicates_dropped >= 1


def test_window_limits_inflight(rudp_pair):
    tb, a, b = rudp_pair
    a.window_msgs = 4
    got = []
    b.on_message = lambda d, src: got.append(d)
    for i in range(20):
        a.sendto(bytes([i]), (1, 6000))
    assert a.unacked_messages((1, 6000)) <= 4
    tb.sim.run(until=5 * SEC)
    assert len(got) == 20


def test_oversized_message_rejected(rudp_pair):
    _, a, _ = rudp_pair
    with pytest.raises(RudpError):
        a.sendto(b"x" * (RUDP_MAX_PAYLOAD + 1), (1, 6000))


def test_peer_failure_reported_after_retries(zero_testbed):
    # Only host 0 has a stack; the peer simply doesn't exist.
    ip = IpStack(zero_testbed.hosts[0])
    udp = UdpStack(zero_testbed.hosts[0], ip)
    sock = RudpSocket(udp.socket(), rto_ns=1 * MS, max_retries=3)
    failures = []
    sock.on_peer_failed = failures.append
    sock.sendto(b"void", (1, 7000))
    zero_testbed.sim.run(until=1 * SEC)
    assert failures == [(1, 7000)]


def test_recv_future_interface(rudp_pair):
    tb, a, b = rudp_pair
    results = []

    def proc():
        data, src = yield b.recv_future()
        results.append((data, src))

    tb.sim.process(proc())
    a.sendto(b"hello", (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert results == [(b"hello", (0, 6000))]


def test_per_peer_sequence_spaces(zero_testbed):
    ips = [IpStack(h) for h in zero_testbed.hosts]
    udps = [UdpStack(h, ip) for h, ip in zip(zero_testbed.hosts, ips)]
    # host1 runs one server socket; host0 runs two client sockets.
    server = RudpSocket(udps[1].socket(6000))
    c1 = RudpSocket(udps[0].socket(7001))
    c2 = RudpSocket(udps[0].socket(7002))
    got = []
    server.on_message = lambda d, src: got.append((d, src[1]))
    c1.sendto(b"a", (1, 6000))
    c2.sendto(b"b", (1, 6000))
    c1.sendto(b"c", (1, 6000))
    zero_testbed.sim.run(until=1 * SEC)
    assert sorted(got) == [(b"a", 7001), (b"b", 7002), (b"c", 7001)]


def test_window_validation():
    with pytest.raises(RudpError):
        RudpSocket.__new__(RudpSocket).__init__(None, window_msgs=0)


# ---------------------------------------------------------------------------
# Close semantics
# ---------------------------------------------------------------------------


def _host_socket(zero_testbed, index, port=None, **kwargs):
    ip = IpStack(zero_testbed.hosts[index])
    udp = UdpStack(zero_testbed.hosts[index], ip)
    return RudpSocket(udp.socket(port), **kwargs)


def test_close_detaches_and_fails_everything(rudp_pair):
    tb, a, b = rudp_pair
    fut = b.recv_future()
    results = []
    a.sendto(b"doomed", (1, 6000), on_result=results.append)
    a.close()
    b.close()
    assert a.udp.on_datagram is None and b.udp.on_datagram is None
    assert results == [False]
    assert a.messages_failed == 1
    assert fut.done and fut.value is None
    late = b.recv_future()
    assert late.done and late.value is None  # closed socket resolves at once
    with pytest.raises(RudpError):
        a.sendto(b"x", (1, 6000))
    tb.sim.run(until=1 * SEC)  # no stray timers fire afterwards


def test_close_is_idempotent(rudp_pair):
    _, a, _ = rudp_pair
    a.sendto(b"m", (1, 6000))
    a.close()
    a.close()  # second close is a no-op, not an error


def test_close_fails_queued_messages_too(rudp_pair):
    _, a, _ = rudp_pair
    a.window_msgs = 1
    results = []
    a.sendto(b"inflight", (1, 6000), on_result=lambda ok: results.append(("i", ok)))
    a.sendto(b"queued", (1, 6000), on_result=lambda ok: results.append(("q", ok)))
    a.close()
    assert results == [("i", False), ("q", False)]
    assert a.messages_failed == 2


# ---------------------------------------------------------------------------
# Delivery callbacks
# ---------------------------------------------------------------------------


def test_on_result_reports_acked_delivery(rudp_pair):
    tb, a, b = rudp_pair
    results = []
    b.on_message = lambda d, src: None
    a.sendto(b"ok", (1, 6000), on_result=results.append)
    assert results == []  # not before the ACK comes back
    tb.sim.run(until=1 * SEC)
    assert results == [True]


# ---------------------------------------------------------------------------
# Adaptive RTO / fast retransmit / SACK
# ---------------------------------------------------------------------------


def test_adaptive_rto_converges_below_initial(rudp_pair):
    tb, a, b = rudp_pair
    addr = (1, 6000)
    b.on_message = lambda d, src: None
    for i in range(20):
        a.sendto(f"m{i}".encode(), addr)
    tb.sim.run(until=1 * SEC)
    assert a.rto_samples >= 20
    # A clean LAN has microsecond RTTs; the estimator must have pulled
    # the RTO well below the 2 ms it was seeded with (down to the floor).
    assert a.min_rto_ns <= a.current_rto_ns(addr) < 2 * MS


def test_fast_retransmit_beats_timeout(zero_testbed):
    tb = zero_testbed
    # A huge, non-adaptive-floor RTO isolates fast retransmit: if the
    # drop were repaired by timeout the test's time bound would trip.
    a = _host_socket(tb, 0, 6000, rto_ns=50 * MS, min_rto_ns=50 * MS)
    b = _host_socket(tb, 1, 6000)
    tb.set_egress_loss(0, ExplicitLoss([2]))  # lose the second message
    got = []
    b.on_message = lambda d, src: got.append(d)
    msgs = [f"m{i}".encode() for i in range(10)]
    for m in msgs:
        a.sendto(m, (1, 6000))
    tb.sim.run(until=40 * MS)  # before the first 50 ms timeout could fire
    assert got == msgs
    assert a.fast_retransmits == 1
    assert a.timeouts == 0
    # SACK kept the repair surgical: one loss, one retransmission.
    assert a.retransmissions == 1
    assert a.sack_blocks_received >= 1


def test_fixed_mode_recovers_by_timeout_only(zero_testbed):
    tb = zero_testbed
    a = _host_socket(tb, 0, 6000, rto_ns=2 * MS, adaptive=False)
    b = _host_socket(tb, 1, 6000)
    tb.set_egress_loss(0, ExplicitLoss([1]))
    got = []
    b.on_message = lambda d, src: got.append(d)
    msgs = [f"m{i}".encode() for i in range(5)]
    for m in msgs:
        a.sendto(m, (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == msgs
    assert a.fast_retransmits == 0  # no fast path in the legacy mode
    assert a.timeouts >= 1
    assert a.current_rto_ns((1, 6000)) == 2 * MS  # never adapts


def _ack_packet(ack_seq, echo=0):
    """A wire-format RUDP ACK as the receiver would emit it."""
    import struct

    from repro.transport.rudp import KIND_ACK

    return struct.pack("!BQ", KIND_ACK, ack_seq) + struct.pack("!Q", echo)


def test_stale_reordered_acks_do_not_trigger_fast_retransmit(zero_testbed):
    # Regression: dup-ACK counting must only count re-assertions of the
    # *current* cumulative point (RFC 5681).  A stale ACK reordered from
    # before the window advanced says nothing about the current hole;
    # counting it used to fire a spurious fast retransmit after a single
    # genuine duplicate.
    tb = zero_testbed
    addr = (1, 7000)
    a = _host_socket(tb, 0, 6000, rto_ns=500 * MS, min_rto_ns=500 * MS)
    for i in range(5):
        a.sendto(f"m{i}".encode(), addr)  # seqs 1..5 in flight
    # Cumulative ACK 4: seqs 1-3 delivered, hole at 4 (5 arrived beyond it).
    a._on_datagram(_ack_packet(4), addr)
    assert a.unacked_messages(addr) == 2
    # Two stale ACKs from before the window advanced arrive late ...
    a._on_datagram(_ack_packet(2), addr)
    a._on_datagram(_ack_packet(3), addr)
    # ... then ONE genuine duplicate of the current cumulative point.
    a._on_datagram(_ack_packet(4), addr)
    assert a.fast_retransmits == 0  # one real dup is not evidence of loss
    assert a.retransmissions == 0
    # Three genuine duplicates ARE evidence of loss: the fast path still fires.
    a._on_datagram(_ack_packet(4), addr)
    a._on_datagram(_ack_packet(4), addr)
    assert a.fast_retransmits == 1
    assert a.retransmissions == 1


def test_backoff_spaces_retries_to_dead_peer(zero_testbed):
    # Only host 0 has a stack; the peer simply doesn't exist.
    sock = _host_socket(zero_testbed, 0, rto_ns=1 * MS, max_retries=5)
    results = []
    failed_at = []
    sock.on_peer_failed = lambda addr: failed_at.append(zero_testbed.sim.now)
    sock.sendto(b"void", (1, 7000), on_result=results.append)
    zero_testbed.sim.run(until=10 * SEC)
    assert results == [False]
    assert sock.peer_failures == 1 and sock.messages_failed == 1
    assert sock.timeouts == 5 and sock.backoff_events == 5
    # Exponential backoff: the retry train must stretch far beyond the
    # 6 ms that six fixed 1 ms timeouts would have taken.
    assert failed_at and failed_at[0] > 6 * MS


# ----------------------------------------------------------------------
# sendto aliasing (zero-copy audit)
# ----------------------------------------------------------------------

def test_sendto_snapshots_mutable_buffers(zero_testbed):
    """A caller reusing its bytearray after sendto must not corrupt the
    retransmission store: the socket snapshots mutable buffers at the
    API boundary, so the retransmitted copy equals the original bytes."""
    tb = zero_testbed
    a = _host_socket(tb, 0, 6000, rto_ns=2 * MS)
    b = _host_socket(tb, 1, 6000, rto_ns=2 * MS)
    tb.set_egress_loss(0, ExplicitLoss([1]))  # force a retransmission
    got = []
    b.on_message = lambda d, src: got.append(d)
    buf = bytearray(b"precious payload")
    a.sendto(buf, (1, 6000))
    buf[:] = b"scribbled-over!!"  # caller reuses its buffer immediately
    tb.sim.run(until=1 * SEC)
    assert a.retransmissions >= 1
    assert got == [b"precious payload"]


def test_sendto_accepts_memoryview(zero_testbed):
    tb = zero_testbed
    a = _host_socket(tb, 0, 6000)
    b = _host_socket(tb, 1, 6000)
    got = []
    b.on_message = lambda d, src: got.append(d)
    backing = bytearray(b"xxwindowed viewyy")
    a.sendto(memoryview(backing)[2:-2], (1, 6000))
    backing[:] = bytearray(len(backing))
    tb.sim.run(until=1 * SEC)
    assert got == [b"windowed view"]


# ----------------------------------------------------------------------
# Batched (delayed) acknowledgements
# ----------------------------------------------------------------------

def _batched_pair(zero_testbed, **kwargs):
    a = _host_socket(zero_testbed, 0, 6000, rto_ns=2 * MS)
    b = _host_socket(zero_testbed, 1, 6000, rto_ns=2 * MS, **kwargs)
    return a, b


def test_ack_batching_reduces_ack_traffic(zero_testbed):
    tb = zero_testbed
    a, b = _batched_pair(tb, ack_every=4)
    got = []
    b.on_message = lambda d, src: got.append(d)
    for i in range(8):
        a.sendto(bytes([i]), (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert len(got) == 8
    # Eight in-order arrivals, one ACK per four: the legacy mode's
    # eight ACKs collapse to two (no anomaly, no timer flush needed).
    assert b.acks_sent == 2
    assert a.retransmissions == 0


def test_ack_delay_timer_flushes_residue(zero_testbed):
    """Fewer arrivals than ack_every: the pending-ACK timer must flush
    before the sender's RTO, and its echo (seq 0) takes no RTT sample."""
    tb = zero_testbed
    a, b = _batched_pair(tb, ack_every=8)
    got = []
    b.on_message = lambda d, src: got.append(d)
    a.sendto(b"lonely", (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == [b"lonely"]
    assert b.acks_sent == 1
    assert a.retransmissions == 0  # timer beat the sender's RTO
    assert a.unacked_messages((1, 6000)) == 0
    assert a.rto_samples == 0  # echo 0 must not contaminate SRTT


def test_anomaly_flushes_ack_immediately(zero_testbed):
    """A gap must bypass batching: the out-of-order arrival ACKs at
    once (carrying SACK), so fast retransmit keeps its timing."""
    tb = zero_testbed
    a, b = _batched_pair(tb, ack_every=64)
    tb.set_egress_loss(0, ExplicitLoss([1]))
    got = []
    b.on_message = lambda d, src: got.append(d)
    for i in range(6):
        a.sendto(f"m{i}".encode(), (1, 6000))
    tb.sim.run(until=1 * SEC)
    assert got == [f"m{i}".encode() for i in range(6)]
    # Every arrival past the gap was an anomaly -> immediate ACKs, not
    # one ACK per 64.
    assert b.acks_sent >= 5
    assert a.retransmissions >= 1


def test_batched_acks_in_order_under_loss(zero_testbed):
    """End-to-end: batching changes ACK timing, never delivery."""
    tb = zero_testbed
    a, b = _batched_pair(tb, ack_every=4)
    tb.set_egress_loss(0, BernoulliLoss(0.15, seed=9))
    got = []
    b.on_message = lambda d, src: got.append(d)
    msgs = [f"msg-{i}".encode() for i in range(200)]
    for m in msgs:
        a.sendto(m, (1, 6000))
    tb.sim.run(until=60 * SEC)
    assert got == msgs  # exactly once, in order
    assert b.acks_sent < len(msgs) + b.duplicates_dropped + a.retransmissions


def test_fixed_rto_baseline_ignores_ack_every(zero_testbed):
    """adaptive=False is the paper's original design; it predates
    delayed ACKs and must keep acking every arrival."""
    sock = _host_socket(zero_testbed, 0, 6000, adaptive=False, ack_every=16)
    assert sock.ack_every == 1


def test_ack_batching_parameters_validated(zero_testbed):
    with pytest.raises(RudpError):
        _host_socket(zero_testbed, 0, 6000, ack_every=0)
    with pytest.raises(RudpError):
        _host_socket(zero_testbed, 1, 6000, ack_delay_ns=0)
