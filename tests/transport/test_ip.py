"""IP fragmentation and reassembly tests."""

import pytest

from repro.simnet.engine import MS
from repro.transport.ip import IP_HEADER, IpStack


class _Obj:
    """Stand-in upper-layer payload."""


def _pair(zero_testbed):
    a = IpStack(zero_testbed.hosts[0])
    b = IpStack(zero_testbed.hosts[1])
    return a, b


class TestFragmentation:
    def test_small_payload_single_packet(self, zero_testbed):
        a, b = _pair(zero_testbed)
        got = []
        b.register("t", lambda p, src, size: got.append((p, src, size)))
        obj = _Obj()
        n = a.send(1, "t", obj, 100)
        zero_testbed.sim.run()
        assert n == 1
        assert got == [(obj, 0, 100)]

    def test_fragment_count_math(self, zero_testbed):
        a, _ = _pair(zero_testbed)
        mtu = a.mtu()
        max_data = (mtu - IP_HEADER) // 8 * 8
        assert a.fragments_needed(100) == 1
        assert a.fragments_needed(mtu - IP_HEADER) == 1
        assert a.fragments_needed(mtu - IP_HEADER + 1) == 2
        assert a.fragments_needed(10 * max_data) == 10

    def test_large_payload_fragmented_and_reassembled(self, zero_testbed):
        a, b = _pair(zero_testbed)
        got = []
        b.register("t", lambda p, src, size: got.append(size))
        n = a.send(1, "t", _Obj(), 9000)
        zero_testbed.sim.run()
        assert n == a.fragments_needed(9000) > 1
        assert got == [9000]

    def test_tx_packets_counts_every_packet_sent(self, zero_testbed):
        a, b = _pair(zero_testbed)
        b.register("t", lambda p, src, size: None)
        max_data = (a.mtu() - IP_HEADER) // 8 * 8
        assert a.send(1, "t", _Obj(), 64) == 1
        assert a.tx_packets == 1
        assert a.send(1, "t", _Obj(), 2 * max_data + 1) == 3
        assert a.tx_packets == 4
        zero_testbed.sim.run()
        assert zero_testbed.hosts[0].port.tx_frames == 4

    def test_lost_fragment_drops_whole_datagram(self, zero_testbed):
        from repro.simnet.loss import ExplicitLoss

        a, b = _pair(zero_testbed)
        zero_testbed.set_egress_loss(0, ExplicitLoss([2]))
        got = []
        b.register("t", lambda p, src, size: got.append(size))
        a.send(1, "t", _Obj(), 9000)
        zero_testbed.sim.run(until=500 * MS)
        assert got == []
        assert b.reassembly_timeouts == 1

    def test_interleaved_datagrams_reassemble_independently(self, zero_testbed):
        a, b = _pair(zero_testbed)
        got = []
        b.register("t", lambda p, src, size: got.append(size))
        a.send(1, "t", _Obj(), 5000)
        a.send(1, "t", _Obj(), 7000)
        zero_testbed.sim.run()
        assert sorted(got) == [5000, 7000]

    def test_unknown_upper_protocol_ignored(self, zero_testbed):
        a, b = _pair(zero_testbed)
        a.send(1, "nosuch", _Obj(), 10)
        zero_testbed.sim.run()
        assert b.delivered == 0

    def test_duplicate_registration_rejected(self, zero_testbed):
        a, _ = _pair(zero_testbed)
        a.register("t", lambda *a: None)
        with pytest.raises(ValueError):
            a.register("t", lambda *a: None)

    def test_negative_size_rejected(self, zero_testbed):
        a, _ = _pair(zero_testbed)
        with pytest.raises(ValueError):
            a.send(1, "t", _Obj(), -1)

    def test_pending_reassembly_state_cleaned_on_timeout(self, zero_testbed):
        from repro.simnet.loss import ExplicitLoss

        a, b = _pair(zero_testbed)
        zero_testbed.set_egress_loss(0, ExplicitLoss([1]))
        a.send(1, "t", _Obj(), 9000)
        zero_testbed.sim.run(until=1 * MS)
        assert b.pending_reassemblies() == 1
        zero_testbed.sim.run(until=500 * MS)
        assert b.pending_reassemblies() == 0

    def test_zero_byte_payload(self, zero_testbed):
        a, b = _pair(zero_testbed)
        got = []
        b.register("t", lambda p, src, size: got.append(size))
        a.send(1, "t", _Obj(), 0)
        zero_testbed.sim.run()
        assert got == [0]
