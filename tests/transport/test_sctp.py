"""SCTP-lite association tests."""

import zlib

import pytest

from repro.bench.harness import VerbsEndpointPair
from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.transport.ip import IpStack
from repro.transport.sctp import (
    CH_COOKIE_ECHO, CH_DATA, CH_INIT, CLOSED, ESTABLISHED, SCTP_MAX_COOKIES,
    SCTP_WINDOW_MSGS, SctpAssociation, SctpChunk, SctpError, SctpStack,
)


@pytest.fixture
def sctp_pair(zero_testbed):
    stacks = []
    for h in zero_testbed.hosts:
        ip = IpStack(h)
        stacks.append(SctpStack(h, ip))
    return zero_testbed, stacks[0], stacks[1]


def _associate(tb, a, b, port=3000):
    listener = b.listen(port)
    accepted = listener.accept_future()
    cli = a.connect((1, port))
    tb.sim.run_until(cli.established, limit=10 * SEC)
    tb.sim.run_until(accepted, limit=10 * SEC)
    return cli, accepted.value


class TestAssociation:
    def test_four_way_handshake(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        assert cli.state == ESTABLISHED
        assert srv.state == ESTABLISHED

    def test_cookie_validation_blocks_forgery(self, sctp_pair):
        _, a, b = sctp_pair
        assert not b.validate_cookie((0, 99), 0xBAD)
        cookie = b.issue_cookie((0, 42))
        assert b.validate_cookie((0, 42), cookie)
        assert not b.validate_cookie((0, 43), cookie)

    def test_init_retransmitted_under_loss(self, sctp_pair):
        tb, a, b = sctp_pair
        tb.set_egress_loss(0, ExplicitLoss([1]))  # drop the INIT
        b.listen(3000)
        cli = a.connect((1, 3000))
        tb.sim.run_until(cli.established, limit=30 * SEC)
        assert cli.state == ESTABLISHED
        assert cli.retransmissions >= 1

    def test_lost_cookie_ack_is_answered_on_the_echo_retransmission(self, sctp_pair):
        tb, a, b = sctp_pair
        tb.set_egress_loss(1, ExplicitLoss([2]))  # INIT-ACK passes, COOKIE-ACK drops
        cli, srv = _associate(tb, a, b)
        assert cli.state == srv.state == ESTABLISHED
        assert cli.retransmissions >= 1
        assert b.open_associations() == 1 and b.bogus_cookie_echoes == 0

    def test_duplicate_listen_rejected(self, sctp_pair):
        _, _, b = sctp_pair
        b.listen(3000)
        with pytest.raises(SctpError):
            b.listen(3000)

    def test_closed_listener_frees_its_port(self, sctp_pair):
        tb, a, b = sctp_pair
        b.listen(3000).close()
        cli, srv = _associate(tb, a, b, port=3000)
        assert cli.state == ESTABLISHED

    def test_shutdown(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        cli.shutdown()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert cli.state == CLOSED
        assert srv.state == CLOSED

    def test_abort(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        cli.abort()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert srv.state == CLOSED


class TestDataTransfer:
    def test_message_boundaries_preserved(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        got = []
        srv.on_message = got.append
        msgs = [bytes([i]) * (i * 37 + 1) for i in range(20)]
        for m in msgs:
            cli.send_message(m)
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert got == msgs  # boundaries intact, in order — no MPA needed

    def test_oversized_message_rejected(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, _ = _associate(tb, a, b)
        with pytest.raises(SctpError):
            cli.send_message(b"x" * (cli.max_message + 1))

    def test_reliable_in_order_under_loss(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        tb.set_egress_loss(0, BernoulliLoss(0.05, seed=12))
        got = []
        srv.on_message = got.append
        msgs = [f"m{i}".encode() for i in range(300)]
        for m in msgs:
            cli.send_message(m)
        tb.sim.run(until=tb.sim.now + 120 * SEC)
        assert got == msgs
        assert cli.retransmissions > 0

    def test_fast_retransmit_on_gap_reports(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        got = []
        srv.on_message = got.append
        tb.set_egress_loss(0, ExplicitLoss([2]))  # drop one mid-run DATA
        for i in range(30):
            cli.send_message(bytes([i]))
        tb.sim.run(until=tb.sim.now + 30 * SEC)
        assert got == [bytes([i]) for i in range(30)]
        assert cli.cong.fast_retransmits + cli.cong.timeouts >= 1

    def test_bidirectional(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        got_c, got_s = [], []
        cli.on_message = got_c.append
        srv.on_message = got_s.append
        for i in range(10):
            cli.send_message(b"c%d" % i)
            srv.send_message(b"s%d" % i)
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert len(got_c) == len(got_s) == 10

    def test_send_before_established_queued(self, sctp_pair):
        tb, a, b = sctp_pair
        listener = b.listen(3000)
        got = []
        listener.on_accept = lambda assoc: setattr(assoc, "on_message", got.append)
        cli = a.connect((1, 3000))
        cli.send_message(b"early")  # queued during handshake
        tb.sim.run(until=tb.sim.now + 2 * SEC)
        assert got == [b"early"]

    def test_association_count(self, sctp_pair):
        tb, a, b = sctp_pair
        _associate(tb, a, b)
        assert a.open_associations() == 1
        assert b.open_associations() == 1


def test_a_chunk_failing_its_checksum_is_dropped_unacknowledged(sctp_pair):
    """No DDP CRC sits above SCTP, so its own checksum must catch a
    corrupted DATA chunk: dropped, counted, and the good copy delivered."""
    tb, a, b = sctp_pair
    cli, srv = _associate(tb, a, b)
    got = []
    srv.on_message = got.append
    for crc in (zlib.crc32(b"y"), zlib.crc32(b"x")):
        a.transmit_chunk(cli, SctpChunk(
            kind=CH_DATA, src_port=cli.local_port, dst_port=srv.local_port,
            tsn=1, payload=b"x", crc=crc,
        ))
        tb.sim.run(until=tb.sim.now + 1 * SEC)
    assert got == [b"x"] and srv.crc_drops == 1 and srv._rx.rcv_nxt == 2


class TestHostilePeer:
    def test_far_ahead_tsns_are_dropped_not_parked(self, sctp_pair):
        """A peer spraying TSNs past the receive window cannot grow the
        out-of-order buffer; each such chunk is counted, and the hole
        still drains in order."""
        tb, a, b = sctp_pair
        cli, srv = _associate(tb, a, b)
        got = []
        srv.on_message = got.append

        def forge(tsn):
            payload = bytes([tsn & 0xFF])
            a.transmit_chunk(cli, SctpChunk(
                kind=CH_DATA, src_port=cli.local_port, dst_port=srv.local_port,
                tsn=tsn, payload=payload, crc=zlib.crc32(payload),
            ))

        window = SCTP_WINDOW_MSGS
        # TSN 1 is the hole.  Far ahead (only 2 lies inside the window),
        # then 3..9 inside it and 3 TSNs at and past its edge.
        for tsn in [2 + window * i for i in range(50)] + list(range(3, 10)):
            forge(tsn)
        for tsn in range(window + 1, window + 4):
            forge(tsn)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        parked = srv._rx.parked
        assert sorted(parked) == list(range(2, 10))
        assert all(tsn < srv._rx.rcv_nxt + window for tsn in parked)
        assert srv.out_of_window_drops == 49 + 3
        assert got == []
        forge(1)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert got == [bytes([i]) for i in range(1, 10)]
        assert not parked and srv._rx.rcv_nxt == 10

    @staticmethod
    def _forge(stack, kind, src_port, dst_port=3000, cookie=0):
        """Send one chunk from ``stack``'s host, owned by no association."""
        sender = SctpAssociation(stack, src_port, (1, dst_port))
        stack.transmit_chunk(sender, SctpChunk(kind, src_port, dst_port, cookie=cookie))

    def test_bogus_cookie_echo_leaves_no_association(self, sctp_pair):
        tb, a, b = sctp_pair
        b.listen(3000)
        self._forge(a, CH_COOKIE_ECHO, 4000, cookie=0xBAD)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b.open_associations() == 0
        assert b.bogus_cookie_echoes == 1

    def test_connect_from_a_port_a_bogus_echo_used_is_accepted(self, sctp_pair):
        tb, a, b = sctp_pair
        listener = b.listen(3000)
        self._forge(a, CH_COOKIE_ECHO, 4000, cookie=0xBAD)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        accepted = listener.accept_future()
        cli = a.connect((1, 3000), local_port=4000)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert cli.state == ESTABLISHED
        assert accepted.done and accepted.value.state == ESTABLISHED

    def test_bogus_echo_spray_creates_nothing(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, _ = _associate(tb, a, b)
        before = b.open_associations()
        for port in range(4000, 4500):
            self._forge(a, CH_COOKIE_ECHO, port, cookie=0x1000 + port)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b.open_associations() == before == 1
        assert b.bogus_cookie_echoes == 500

    def test_init_spray_is_capped_and_counted(self, sctp_pair):
        tb, a, b = sctp_pair
        b.listen(3000)
        sprayed = 2 * SCTP_MAX_COOKIES
        for port in range(4000, 4000 + sprayed):
            self._forge(a, CH_INIT, port)
            if port % 256 == 0:  # in bursts the NIC queue holds
                tb.sim.run(until=tb.sim.now + 10 * MS)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert len(b._valid_cookies) == SCTP_MAX_COOKIES
        assert b.cookie_evictions == sprayed - SCTP_MAX_COOKIES
        # An honest peer still gets in: its cookie is the newest.
        accepted = b._listeners[3000].accept_future()
        cli = a.connect((1, 3000))
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert cli.state == ESTABLISHED and accepted.done

    def test_echo_replayed_after_close_is_rejected(self, sctp_pair):
        tb, a, b = sctp_pair
        cli, _ = _associate(tb, a, b)
        cookie, port = cli._cookie, cli.local_port
        cli.shutdown()
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b.open_associations() == 0
        self._forge(a, CH_COOKIE_ECHO, port, cookie=cookie)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        assert b.open_associations() == 0
        assert b.bogus_cookie_echoes == 1


class TestMetrics:
    def test_rcsctp_run_exports_the_association_and_stack_counters(self):
        """With metrics on, an RC-over-SCTP run at 1 % loss exports each
        association's repair counters and gauges and each stack's cookie
        counters, equal to the live attributes."""
        pair = VerbsEndpointPair.build(
            "rcsctp_sendrecv", loss=BernoulliLoss(0.01, seed=1), metrics=True,
        )
        assert pair.bandwidth_mbs(16384, messages=40, window=16)["received_msgs"] == 40
        snap = pair.metrics_snapshot("transport.sctp")
        retransmissions = 0
        for qp in pair.qps:
            assoc = qp.assoc
            host = assoc.stack.host.name
            labels = f'{{assoc="{assoc.local_port}-{assoc.remote[0]}:{assoc.remote[1]}",host="{host}"}}'
            assert snap["transport.sctp.retransmissions" + labels] == assoc.retransmissions
            assert snap["transport.sctp.out_of_window_drops" + labels] == assoc.out_of_window_drops
            assert snap["transport.sctp.cwnd_bytes" + labels] == assoc.cong.cwnd
            assert snap["transport.sctp.rto_ns" + labels] == assoc.rto.rto_ns
            stack = f'{{host="{host}"}}'
            assert snap["transport.sctp.bogus_cookie_echoes" + stack] == assoc.stack.bogus_cookie_echoes
            assert snap["transport.sctp.cookie_evictions" + stack] == assoc.stack.cookie_evictions
            retransmissions += assoc.retransmissions
        assert retransmissions > 0
