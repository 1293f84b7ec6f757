"""SCTP-lite association tests."""

import pytest

from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.transport.ip import IpStack
from repro.transport.sctp import ESTABLISHED, CLOSED, SctpError, SctpStack


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
