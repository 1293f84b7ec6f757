"""TCP tests: handshake, transfer, ordering, retransmission, teardown."""

import pytest

from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.transport.rto import RtoEstimator
from repro.transport.stacks import install_stacks
from repro.transport.tcp.connection import (
    CLOSE_WAIT, CLOSED, ESTABLISHED, FIN_WAIT_2, TIME_WAIT,
)
from repro.transport.tcp.congestion import RenoCongestion
from repro.transport.tcp.segment import ACK, FIN, SYN, TcpSegment, flag_names


@pytest.fixture
def tcp_pair(zero_testbed):
    """(testbed, client_stack, server_stack) with zero CPU costs."""
    nets = install_stacks(zero_testbed)
    return zero_testbed, nets[0], nets[1]


def _connect(tb, cstack, sstack, port=80):
    listener = sstack.tcp.listen(port)
    accepted = listener.accept_future()
    cli = cstack.tcp.connect((1, port))
    tb.sim.run_until(cli.established, limit=5 * SEC)
    tb.sim.run_until(accepted, limit=5 * SEC)
    return cli, accepted.value


class TestSegment:
    def test_seq_span_counts_syn_fin(self):
        assert TcpSegment(1, 2, 0, 0, SYN, 0).seq_span == 1
        assert TcpSegment(1, 2, 0, 0, FIN | ACK, 0).seq_span == 1
        assert TcpSegment(1, 2, 0, 0, ACK, 0, b"abc").seq_span == 3
        assert TcpSegment(1, 2, 10, 0, SYN, 0, b"ab").end_seq == 13

    def test_flag_names(self):
        assert flag_names(SYN | ACK) == "SYN|ACK"
        assert flag_names(0) == "-"


class TestRtoEstimator:
    def test_first_sample_initializes(self):
        rto = RtoEstimator(min_rto_ns=1000)
        rto.sample(10_000)
        assert rto.srtt == 10_000
        assert rto.rto_ns >= 1000

    def test_smoothing_converges(self):
        rto = RtoEstimator(min_rto_ns=1)
        for _ in range(100):
            rto.sample(50_000)
        assert abs(rto.srtt - 50_000) < 1
        assert rto.rto_ns >= 50_000

    def test_backoff_doubles_and_caps(self):
        rto = RtoEstimator(min_rto_ns=1_000_000, max_rto_ns=10_000_000)
        rto.sample(1_000_000)
        base = rto.rto_ns
        rto.on_timeout()
        assert rto.rto_ns == min(base * 2, 10_000_000)
        for _ in range(20):
            rto.on_timeout()
        assert rto.rto_ns == 10_000_000

    def test_new_sample_resets_backoff(self):
        rto = RtoEstimator(min_rto_ns=1_000_000)
        rto.sample(1_000_000)
        rto.on_timeout()
        rto.sample(1_000_000)
        assert rto.rto_ns < 4_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            RtoEstimator(min_rto_ns=0)
        rto = RtoEstimator()
        with pytest.raises(ValueError):
            rto.sample(-1)


class TestReno:
    def test_initial_window(self):
        cong = RenoCongestion(1460)
        assert cong.cwnd == 14_600

    def test_slow_start_growth(self):
        cong = RenoCongestion(1000)
        start = cong.cwnd
        cong.on_ack(1000, snd_una=1000)
        assert cong.cwnd == start + 1000

    def test_congestion_avoidance_after_ssthresh(self):
        cong = RenoCongestion(1000)
        cong.ssthresh = cong.cwnd  # leave slow start
        before = cong.cwnd
        cong.on_ack(1000, snd_una=1000)
        assert before < cong.cwnd <= before + 1000
        assert cong.cwnd - before == max(1, 1000 * 1000 // before)

    def test_fast_retransmit_halves_window(self):
        cong = RenoCongestion(1000)
        cong.cwnd = 64_000
        assert cong.on_dup_acks(flight_size=64_000, snd_nxt=100_000)
        assert cong.ssthresh == 32_000
        assert cong.cwnd == 32_000 + 3_000
        assert cong.in_recovery
        # second event while recovering is ignored
        assert not cong.on_dup_acks(flight_size=64_000, snd_nxt=100_000)

    def test_recovery_exit_deflates(self):
        cong = RenoCongestion(1000)
        cong.cwnd = 64_000
        cong.on_dup_acks(flight_size=64_000, snd_nxt=100_000)
        cong.on_ack(64_000, snd_una=100_001)
        assert not cong.in_recovery
        assert cong.cwnd == cong.ssthresh

    def test_timeout_collapses_to_one_mss(self):
        cong = RenoCongestion(1000)
        cong.cwnd = 64_000
        cong.on_timeout(flight_size=64_000)
        assert cong.cwnd == 1000
        assert cong.ssthresh == 32_000

    def test_send_allowance(self):
        cong = RenoCongestion(1000)
        cong.cwnd = 10_000
        assert cong.send_allowance(flight_size=4_000, peer_window=50_000) == 6_000
        assert cong.send_allowance(flight_size=4_000, peer_window=5_000) == 1_000
        assert cong.send_allowance(flight_size=20_000, peer_window=50_000) == 0


class TestHandshake:
    def test_three_way_handshake(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        assert cli.conn.state == ESTABLISHED
        assert srv.conn.state == ESTABLISHED

    def test_connect_to_closed_port_stays_unconnected(self, tcp_pair):
        tb, c, s = tcp_pair
        cli = c.tcp.connect((1, 9999))
        tb.sim.run(until=10 * SEC)
        assert not cli.connected

    def test_duplicate_listen_rejected(self, tcp_pair):
        _, c, s = tcp_pair
        s.tcp.listen(80)
        with pytest.raises(Exception):
            s.tcp.listen(80)

    def test_syn_retransmission_on_loss(self, tcp_pair):
        tb, c, s = tcp_pair
        tb.set_egress_loss(0, ExplicitLoss([1]))  # drop the first SYN
        s.tcp.listen(80)
        cli = c.tcp.connect((1, 80))
        tb.sim.run_until(cli.established, limit=10 * SEC)
        assert cli.connected
        assert cli.conn.retransmissions >= 1

    def test_connection_count_tracked(self, tcp_pair):
        tb, c, s = tcp_pair
        _connect(tb, c, s)
        assert c.tcp.open_connections() == 1
        assert s.tcp.open_connections() == 1


class TestTransfer:
    def test_stream_bytes_arrive_in_order(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        cli.send(b"hello ")
        cli.send(b"world")
        tb.sim.run(until=tb.sim.now + 100 * MS)
        assert b"".join(got) == b"hello world"

    def test_large_transfer_integrity(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        payload = bytes(range(256)) * 2048  # 512 KB
        got = []
        srv.on_data = got.append
        cli.send(payload)
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert b"".join(got) == payload

    def test_bidirectional_transfer(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got_s, got_c = [], []
        srv.on_data = got_s.append
        cli.on_data = got_c.append
        cli.send(b"ping" * 1000)
        srv.send(b"pong" * 1000)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b"".join(got_s) == b"ping" * 1000
        assert b"".join(got_c) == b"pong" * 1000

    def test_transfer_survives_random_loss(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        tb.set_egress_loss(0, BernoulliLoss(0.02, seed=9))
        payload = bytes((i * 7) & 0xFF for i in range(200_000))
        got = []
        srv.on_data = got.append
        cli.send(payload)
        tb.sim.run(until=tb.sim.now + 60 * SEC)
        assert b"".join(got) == payload
        assert cli.conn.retransmissions > 0

    def test_fast_retransmit_triggers_on_single_drop(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        # Drop one mid-stream data segment (after handshake frames).
        tb.set_egress_loss(0, ExplicitLoss([5]))
        got = []
        srv.on_data = got.append
        payload = b"z" * 100_000
        cli.send(payload)
        tb.sim.run(until=tb.sim.now + 30 * SEC)
        assert b"".join(got) == payload
        assert cli.conn.cong.fast_retransmits >= 1

    def test_rto_recovery_when_tail_lost(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        # Small message, its single segment dropped: only RTO can recover.
        tb.set_egress_loss(0, ExplicitLoss([1]))
        cli.send(b"only")
        tb.sim.run(until=tb.sim.now + 30 * SEC)
        assert b"".join(got) == b"only"
        assert cli.conn.cong.timeouts >= 1

    def test_recv_future_stream_interface(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        results = []

        def reader():
            data = yield srv.recv_future()
            results.append(data)

        tb.sim.process(reader())
        cli.send(b"stream-data")
        tb.sim.run(until=tb.sim.now + 100 * MS)
        assert results and results[0].startswith(b"stream")

    def test_send_on_unconnected_raises(self, tcp_pair):
        tb, c, s = tcp_pair
        cli = c.tcp.connect((1, 9998))
        # The syscall is queued; sending data before ESTABLISHED is queued
        # too but the connection never opens, so nothing is delivered and
        # the state machine must not crash.
        cli.send(b"early")
        tb.sim.run(until=5 * SEC)
        assert not cli.connected

    def test_sequence_tracking_across_many_sends(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        chunks = [bytes([i]) * (i + 1) for i in range(50)]
        got = []
        srv.on_data = got.append
        for chunk in chunks:
            cli.send(chunk)
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert b"".join(got) == b"".join(chunks)


class TestTeardown:
    def test_orderly_close(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        srv.on_data = lambda d: None
        cli.send(b"bye")
        cli.close()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert cli.conn.state in (FIN_WAIT_2, TIME_WAIT, CLOSED)
        assert srv.conn.state == CLOSE_WAIT
        srv.close()
        tb.sim.run(until=tb.sim.now + 5 * SEC)
        assert cli.conn.state == CLOSED
        assert srv.conn.state == CLOSED

    def test_close_flushes_pending_data_first(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        payload = b"d" * 50_000
        cli.send(payload)
        cli.close()
        tb.sim.run(until=tb.sim.now + 5 * SEC)
        assert b"".join(got) == payload

    def test_abort_sends_rst(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        cli.abort()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert cli.conn.state == CLOSED
        assert srv.conn.state == CLOSED

    def test_send_after_close_rejected(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        cli.conn.close()
        with pytest.raises(Exception):
            cli.conn.send(b"late")


class TestPortAllocation:
    def test_ephemeral_ports_skip_live_connections_and_listeners(self, tcp_pair):
        tb, c, s = tcp_pair
        tcp = c.tcp
        base = tcp.EPHEMERAL_BASE
        tcp.listen(base + 1)
        held = tcp.connect((1, 80), local_port=base + 2)
        assert tcp.connect((1, 80)).conn.local_port == base
        # base+1 has a listener and base+2 a live connection.
        assert tcp.connect((1, 80)).conn.local_port == base + 3
        # Two connections from one local port: the port stays held until
        # both are gone.
        second = tcp.connect((1, 81), local_port=base + 2)
        tcp.forget(held.conn)
        assert tcp.connect((1, 80)).conn.local_port == base + 4
        tcp.forget(second.conn)
        tcp.forget(second.conn)  # a second forget is a no-op
        assert base + 2 not in tcp._port_conns
        assert tcp.connect((1, 80)).conn.local_port == base + 5
