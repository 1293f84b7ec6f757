"""Additional TCP scenarios: windows, Nagle, go-back-N, reordering."""

import pytest

from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.transport.stacks import install_stacks
from repro.transport.tcp.connection import CLOSED
from repro.transport.tcp.segment import TcpSegment


@pytest.fixture
def tcp_pair(zero_testbed):
    nets = install_stacks(zero_testbed)
    return zero_testbed, nets[0], nets[1]


def _connect(tb, cstack, sstack, port=80):
    listener = sstack.tcp.listen(port)
    accepted = listener.accept_future()
    cli = cstack.tcp.connect((1, port))
    tb.sim.run_until(cli.established, limit=5 * SEC)
    tb.sim.run_until(accepted, limit=5 * SEC)
    return cli, accepted.value


class TestWindows:
    def test_peer_window_limits_flight(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        srv.conn.rcvbuf_bytes = 8 * 1024  # tiny advertised window
        srv.on_data = lambda d: None
        # Force the sender to learn the small window via an ACK first.
        cli.send(b"x")
        tb.sim.run(until=tb.sim.now + 50 * MS)
        cli.send(b"y" * 200_000)
        tb.sim.run(until=tb.sim.now + 5 * MS)
        # Flight can never exceed the advertised window.
        assert cli.conn.flight_size() <= 8 * 1024 + cli.conn.mss
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert srv.conn.bytes_received == 200_001

    def test_cwnd_grows_during_transfer(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        srv.on_data = lambda d: None
        start = cli.conn.cong.cwnd
        cli.send(b"z" * 500_000)
        tb.sim.run(until=tb.sim.now + 5 * SEC)
        assert cli.conn.cong.cwnd > start


class TestHostilePeer:
    def test_segments_past_the_window_are_dropped_not_parked(self, tcp_pair):
        """A peer spraying segments past the receive window cannot grow
        the out-of-order map: each is counted, the advertised window
        shrinks only by what was parked, and the hole still drains in
        order."""
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        conn = srv.conn
        base, window, mss = conn.rcv_nxt, conn.rcvbuf_bytes, 1460

        def forge(offset, payload=bytes(mss)):
            conn.on_segment(TcpSegment(
                src_port=conn.remote[1], dst_port=conn.local_port,
                seq=base + offset, ack_seq=0, flags=0, window=0, payload=payload,
            ))

        for i in range(2000):
            forge((1 << 30) + i * mss)  # a GiB past rcv_nxt
        forge(window - 100)  # straddles the window's edge
        forge(window - mss)  # ends exactly at it
        for i in range(1, 4):
            forge(i * mss)  # behind a hole at rcv_nxt
        assert conn.out_of_window_drops == 2001
        assert sorted(conn._ooo) == [base + i * mss for i in (1, 2, 3)] + [base + window - mss]
        assert conn._advertised_window() == window - 4 * mss
        forge(0)
        tb.sim.run(until=tb.sim.now + 10 * MS)
        assert b"".join(got) == bytes(4 * mss)
        assert list(conn._ooo) == [base + window - mss]
        assert conn._advertised_window() == window - mss


class TestRecovery:
    def test_go_back_n_after_timeout_with_burst_loss(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        # Drop a contiguous run of data segments: fast retransmit cannot
        # fully recover (SACK-less), forcing an RTO + go-back-N rewind.
        tb.set_egress_loss(0, ExplicitLoss(range(4, 14)))
        payload = bytes((i * 3) & 0xFF for i in range(150_000))
        cli.send(payload)
        tb.sim.run(until=tb.sim.now + 30 * SEC)
        assert b"".join(got) == payload
        assert cli.conn.cong.timeouts >= 1

    def test_ack_beyond_snd_nxt_after_rewind_accepted(self, tcp_pair):
        """Regression: cumulative ACKs covering pre-rewind data must not
        be discarded (they exceed snd_nxt but not snd_max)."""
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        tb.set_egress_loss(0, BernoulliLoss(0.03, seed=17))
        payload = b"Q" * 400_000
        cli.send(payload)
        tb.sim.run(until=tb.sim.now + 60 * SEC)
        assert b"".join(got) == payload
        assert cli.conn.snd_una == cli.conn.snd_max

    def test_bidirectional_loss(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        tb.set_egress_loss(0, BernoulliLoss(0.02, seed=3))
        tb.set_egress_loss(1, BernoulliLoss(0.02, seed=4))
        got_s, got_c = [], []
        srv.on_data = got_s.append
        cli.on_data = got_c.append
        cli.send(b"c" * 80_000)
        srv.send(b"s" * 80_000)
        tb.sim.run(until=tb.sim.now + 60 * SEC)
        assert b"".join(got_s) == b"c" * 80_000
        assert b"".join(got_c) == b"s" * 80_000

    def test_duplicate_data_reacked_not_redelivered(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        # Drop an ACK so the sender retransmits already-delivered data.
        tb.set_egress_loss(1, ExplicitLoss([2]))
        cli.send(b"once-only")
        tb.sim.run(until=tb.sim.now + 10 * SEC)
        assert b"".join(got) == b"once-only"


class TestStateMachineEdges:
    def test_rst_on_established_connection(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        closed = []
        srv.conn.on_close = lambda: closed.append(True)
        cli.abort()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert srv.conn.state == CLOSED
        assert closed

    def test_simultaneous_close(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        cli.close()
        srv.close()
        tb.sim.run(until=tb.sim.now + 10 * SEC)
        assert cli.conn.state == CLOSED
        assert srv.conn.state == CLOSED

    def test_fin_retransmission(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        tb.set_egress_loss(0, ExplicitLoss([1]))  # drop the FIN
        cli.close()
        tb.sim.run(until=tb.sim.now + 10 * SEC)
        # FIN retransmitted; the peer saw the close.
        assert srv.conn.state in ("CLOSE_WAIT", "CLOSED")

    def test_data_with_fin_loss_still_flushes(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got = []
        srv.on_data = got.append
        tb.set_egress_loss(0, BernoulliLoss(0.05, seed=8))
        cli.send(b"final-words" * 1000)
        cli.close()
        tb.sim.run(until=tb.sim.now + 60 * SEC)
        assert b"".join(got) == b"final-words" * 1000
        assert srv.conn.state in ("CLOSE_WAIT", "CLOSED")

    def test_half_close_peer_can_still_send(self, tcp_pair):
        tb, c, s = tcp_pair
        cli, srv = _connect(tb, c, s)
        got_c = []
        cli.on_data = got_c.append
        srv.on_data = lambda d: None
        cli.close()
        tb.sim.run(until=tb.sim.now + 100 * MS)
        srv.send(b"still-talking")
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b"".join(got_c) == b"still-talking"

    def test_listener_close_stops_accepting(self, tcp_pair):
        tb, c, s = tcp_pair
        listener = s.tcp.listen(81)
        listener.close()
        cli = c.tcp.connect((1, 81))
        tb.sim.run(until=tb.sim.now + 5 * SEC)
        assert not cli.connected
