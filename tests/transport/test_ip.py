"""IP fragmentation and reassembly tests."""

import pytest

from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS
from repro.simnet.topology import build_testbed
from repro.transport.ip import (
    IP_HEADER, MAX_REASSEMBLIES, REASSEMBLY_TIMEOUT_NS, IpPacket, IpStack,
)


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


class TestHostilePeer:
    def test_spraying_distinct_idents_is_capped_and_counted(self):
        """A peer that opens reassemblies with first fragments it never
        completes holds at most MAX_REASSEMBLIES of them; each fragment
        past the cap is dropped and counted, and the table frees up when
        the held ones time out."""
        tb = build_testbed(2, costs=zero_cost_model(), metrics=True)
        b = IpStack(tb.hosts[1])
        got = []
        b.register("t", lambda p, src, size: got.append(size))
        extra = 50
        for ident in range(MAX_REASSEMBLIES + extra):
            pkt = IpPacket(0, 1, "t", _Obj(), 9000, ident, 0, 1480, True)
            b.on_packet(pkt, None)
        assert b.pending_reassemblies() == MAX_REASSEMBLIES
        assert b.reassembly_overflows == extra
        snapshot = tb.registry.snapshot("transport.ip")
        assert snapshot['transport.ip.reassembly_overflows{host="host1"}'] == extra
        tb.sim.run(until=tb.sim.now + 2 * REASSEMBLY_TIMEOUT_NS)
        assert b.pending_reassemblies() == 0
        a = IpStack(tb.hosts[0])
        a.send(1, "t", _Obj(), 9000)
        tb.sim.run(until=tb.sim.now + 1 * MS)
        assert got == [9000]
        assert b.reassembly_overflows == extra

    def test_overlapping_fragment_drops_its_datagram(self):
        """A fragment that shares bytes with what arrived without lying
        inside it drops the whole datagram, frees its state and is
        counted; a fragment inside the received bytes (an exact copy
        among them) changes nothing, and later fragments of the dropped
        datagram only open a reassembly that times out."""
        tb = build_testbed(2, costs=zero_cost_model(), metrics=True)
        b = IpStack(tb.hosts[1])
        got = []
        b.register("t", lambda p, src, size: got.append(size))

        def frag(ident, offset, size, more=True):
            b.on_packet(IpPacket(0, 1, "t", _Obj(), 3000, ident, offset, size, more), None)

        frag(1, 0, 1480)
        frag(1, 0, 1480)        # an exact copy
        frag(1, 1480, 1480)
        frag(1, 100, 2000)      # inside [0, 2960)
        frag(1, 2960, 40, more=False)
        assert got == [3000] and b.overlap_drops == 0

        frag(2, 0, 1480)
        frag(2, 1000, 1480)     # straddles the end of [0, 1480)
        assert b.overlap_drops == 1 and b.pending_reassemblies() == 0
        frag(3, 1480, 1480)
        frag(3, 2960, 40, more=False)
        frag(3, 0, 1488)        # overlaps [1480, 3000) from below
        assert b.overlap_drops == 2 and b.pending_reassemblies() == 0
        frag(2, 2960, 40, more=False)
        assert b.pending_reassemblies() == 1
        tb.sim.run(until=tb.sim.now + 2 * REASSEMBLY_TIMEOUT_NS)
        assert got == [3000] and b.reassembly_timeouts == 1
        snapshot = tb.registry.snapshot("transport.ip")
        assert snapshot['transport.ip.overlap_drops{host="host1"}'] == 2
        assert snapshot['transport.ip.reassembly_timeouts{host="host1"}'] == 1
        assert snapshot['transport.ip.rx_fragments{host="host1"}'] == b.rx_fragments == 11
        assert snapshot['transport.ip.delivered{host="host1"}'] == 1
