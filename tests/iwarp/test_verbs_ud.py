"""Datagram verbs tests: UD send/recv, RDMA Write-Record, UD RDMA Read.

These exercise the paper's §IV.B semantics directly at the verbs level,
including the loss behaviors of §IV.B.4 using deterministic loss
injection.
"""

import pytest

from repro.core.rdmap.engine import UD_REASSEMBLY_TIMEOUT_NS
from repro.core.verbs import (
    QpError, RecvWR, SendWR, Sge, WcStatus, WrOpcode,
)
from repro.memory.region import Access
from repro.simnet.engine import MS, SEC
from repro.simnet.faults import FaultModel
from repro.simnet.loss import ExplicitLoss

RUN_LIMIT = 600 * SEC


class _HoldFrame(FaultModel):
    """Hold the ``index``-th offered frame (1-based) for ``hold_ns``."""

    def __init__(self, index, hold_ns):
        super().__init__()
        self.index, self.hold_ns = index, hold_ns

    def _admit(self, frame, now):
        return [(self.hold_ns if self.seen == self.index else 0, frame)]


@pytest.fixture
def ud(zero_testbed, zero_devices):
    """Two UD QPs + PDs + CQs on the zero-cost testbed."""
    devA, devB = zero_devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    qpA = devA.create_ud_qp(pdA, cqA, port=9000)
    qpB = devB.create_ud_qp(pdB, cqB, port=9001)
    return {
        "tb": zero_testbed, "sim": zero_testbed.sim,
        "devs": (devA, devB), "pds": (pdA, pdB),
        "cqs": (cqA, cqB), "qps": (qpA, qpB),
    }


def _poll(env, side, timeout=5000 * MS):
    fut = env["cqs"][side].poll_wait(timeout_ns=timeout)
    env["sim"].run_until(fut, limit=RUN_LIMIT)
    return fut.value


class TestUdSendRecv:
    def test_delivery_with_source_address(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"datagram"), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(64, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs and wcs[0].ok
        # §IV.B item 4: completions report the sender's address and port.
        assert wcs[0].src == (0, 9000)
        assert wcs[0].byte_len == 8
        assert bytes(dst.view(0, 8)) == b"datagram"

    def test_multi_segment_message_reassembles(self, ud):
        devA, devB = ud["devs"]
        size = 200_000  # > 64 KB: stack-level segmentation (§IV.B.4)
        payload = bytes(i & 0xFF for i in range(size))
        src = devA.reg_mr(bytearray(payload), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(size, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].ok and wcs[0].byte_len == size
        assert bytes(dst.view(0, size)) == payload

    def test_no_posted_receive_drops_and_qp_survives(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        ud["sim"].run(until=50 * MS)
        qpB = ud["qps"][1]
        assert qpB.rx.drops_no_recv_posted == 1
        assert qpB.state == "RTS"  # §IV.B item 2: no error state on UD
        # And the QP still works afterwards.
        dst = devB.reg_mr(16, Access.local_only(), ud["pds"][1])
        qpB.post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address,
        ))
        wcs = _poll(ud, 1)
        assert wcs and wcs[0].ok

    def test_message_larger_than_recv_errors_that_wr(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(1000), Access.local_only(), ud["pds"][0])
        small = devB.reg_mr(10, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(small)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].status is WcStatus.LOCAL_LENGTH_ERROR

    def test_lost_fragment_means_no_completion_then_poll_timeout(self, ud):
        devA, devB = ud["devs"]
        ud["tb"].set_egress_loss(0, ExplicitLoss([2]))
        src = devA.reg_mr(bytearray(9000), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(9000, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        # §IV.B.1: the CQ must be polled with a timeout to detect loss.
        wcs = _poll(ud, 1, timeout=20 * MS)
        assert wcs == []

    def test_lost_segment_of_large_message_reaps_partial(self, ud):
        devA, devB = ud["devs"]
        # Drop one mid-message 64K segment: ~45 fragments per segment.
        ud["tb"].set_egress_loss(0, ExplicitLoss([50]))
        size = 200_000
        src = devA.reg_mr(bytearray(size), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(size, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        ud["sim"].run(until=UD_REASSEMBLY_TIMEOUT_NS + 100 * MS)
        wcs = ud["cqs"][1].poll()
        assert wcs and wcs[0].status is WcStatus.PARTIAL_MESSAGE
        assert 0 < wcs[0].byte_len < size
        assert ud["qps"][1].rx.reaped_partial == 1

    def test_unsignaled_send_produces_no_completion(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(8), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(8, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
            signaled=False,
        ))
        _poll(ud, 1)
        assert ud["cqs"][0].poll() == []

    def test_signaled_send_completes_at_llp_handoff(self, ud):
        devA, _ = ud["devs"]
        src = devA.reg_mr(bytearray(8), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 0)
        # Source completes even though no receive was posted at the
        # target: completion == handoff to the LLP, not delivery.
        assert wcs[0].ok and wcs[0].opcode is WrOpcode.SEND

    def test_send_without_dest_rejected(self, ud):
        devA, _ = ud["devs"]
        src = devA.reg_mr(bytearray(8), Access.local_only(), ud["pds"][0])
        with pytest.raises(QpError):
            ud["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))

    def test_many_peers_one_qp(self, zero_testbed, zero_devices):
        devA, devB = zero_devices
        pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
        cqB = devB.create_cq()
        server = devB.create_ud_qp(pdB, cqB, port=5300)
        dst = devB.reg_mr(4096, Access.local_only(), pdB)
        for _ in range(3):
            server.post_recv(RecvWR(sges=[Sge(dst)]))
        clients = [devA.create_ud_qp(pdA, devA.create_cq()) for _ in range(3)]
        for i, qp in enumerate(clients):
            mr = devA.reg_mr(bytearray(bytes([i]) * 4), Access.local_only(), pdA)
            qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(mr)],
                                dest=server.address))
        srcs = set()
        for _ in range(3):
            fut = cqB.poll_wait(timeout_ns=5000 * MS)
            zero_testbed.sim.run_until(fut, limit=RUN_LIMIT)
            srcs.add(fut.value[0].src)
        assert len(srcs) == 3  # one shared QP served three distinct peers


class TestWriteRecord:
    def _sink(self, ud, size=4096):
        devB = ud["devs"][1]
        return devB.reg_mr(size, Access.remote_write(), ud["pds"][1])

    def test_one_sided_completion_without_posted_receive(self, ud):
        devA, _ = ud["devs"]
        sink = self._sink(ud)
        payload = b"write-record" * 10
        src = devA.reg_mr(bytearray(payload), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        wcs = _poll(ud, 1)
        wc = wcs[0]
        assert wc.ok and wc.opcode is WrOpcode.RDMA_WRITE_RECORD
        assert wc.src == (0, 9000)
        assert wc.validity.complete
        assert wc.validity.ranges() == [(0, len(payload))]
        assert bytes(sink.view(0, len(payload))) == payload

    def test_placement_at_offset(self, ud):
        devA, _ = ud["devs"]
        sink = self._sink(ud)
        src = devA.reg_mr(bytearray(b"ABCD"), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=100,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].base_offset == 100
        assert bytes(sink.view(100, 4)) == b"ABCD"

    def test_lost_last_segment_loses_whole_message(self, ud):
        """§VI.A.2: 'Loss of this final packet results in the loss of the
        entire message' — no completion is ever raised."""
        devA, _ = ud["devs"]
        size = 200_000
        sink = self._sink(ud, size)
        # First, count the frames one such message takes on the wire, so
        # the loss can target exactly the final one.
        src = devA.reg_mr(bytearray(size), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        _poll(ud, 1)
        frames = ud["tb"].hosts[0].port.tx_frames
        # Now drop exactly the last frame of the second, identical message.
        ud["tb"].set_egress_loss(0, ExplicitLoss([frames]))
        reaped_before = ud["qps"][1].rx.reaped_partial
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        ud["sim"].run(until=ud["sim"].now + UD_REASSEMBLY_TIMEOUT_NS + 100 * MS)
        assert ud["cqs"][1].poll() == []
        assert ud["qps"][1].rx.reaped_partial == reaped_before + 1

    def test_lost_middle_segment_completes_with_gap(self, ud):
        """§VI.A.2: segments are placed as they arrive; the completion on
        the LAST segment declares what is valid."""
        devA, _ = ud["devs"]
        size = 200_000
        sink = self._sink(ud, size)
        # Segment 2 of 4 spans frames ~46-90; drop one of them.
        ud["tb"].set_egress_loss(0, ExplicitLoss([50]))
        payload = bytes(i & 0xFF for i in range(size))
        src = devA.reg_mr(bytearray(payload), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        wcs = _poll(ud, 1)
        wc = wcs[0]
        assert wc.ok
        assert not wc.validity.complete
        assert len(wc.validity.gaps()) == 1
        gap_off, gap_len = wc.validity.gaps()[0]
        # Every valid byte range really is in target memory.
        for off, length in wc.validity.ranges():
            assert bytes(sink.view(off, length)) == payload[off : off + length]
        assert wc.byte_len == size - gap_len

    def test_bad_stag_reported_not_fatal(self, ud):
        devA, _ = ud["devs"]
        src = devA.reg_mr(bytearray(16), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=0xBAD, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1
        assert ud["qps"][1].state == "RTS"

    def test_sink_without_remote_write_rejected(self, ud):
        devA, devB = ud["devs"]
        sink = devB.reg_mr(64, Access.local_only(), ud["pds"][1])  # no REMOTE_WRITE
        src = devA.reg_mr(bytearray(16), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1
        assert bytes(sink.view(0, 16)) == b"\x00" * 16  # nothing placed

    def test_write_beyond_sink_bounds_rejected(self, ud):
        devA, _ = ud["devs"]
        sink = self._sink(ud, size=64)
        src = devA.reg_mr(bytearray(128), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1

    def test_concurrent_messages_tracked_independently(self, ud):
        devA, _ = ud["devs"]
        sink = self._sink(ud, 8192)
        for i in range(4):
            src = devA.reg_mr(
                bytearray(bytes([i + 1]) * 100), Access.local_only(), ud["pds"][0]
            )
            ud["qps"][0].post_send(SendWR(
                opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
                dest=ud["qps"][1].address, remote_stag=sink.stag,
                remote_offset=i * 100,
            ))
        seen = []
        for _ in range(4):
            wcs = _poll(ud, 1)
            seen.append(wcs[0].base_offset)
        assert sorted(seen) == [0, 100, 200, 300]
        for i in range(4):
            assert bytes(sink.view(i * 100, 100)) == bytes([i + 1]) * 100


class TestUdRdmaRead:
    def test_read_over_datagrams(self, ud):
        """The paper's future-work extension: UD-based RDMA Read."""
        devA, devB = ud["devs"]
        data = b"remote-content" * 50
        src_region = devB.reg_mr(bytearray(data), Access.remote_read(), ud["pds"][1])
        sink = devA.reg_mr(len(data), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            dest=ud["qps"][1].address,
            remote_stag=src_region.stag, remote_offset=0,
        ))
        wcs = _poll(ud, 0)
        wc = wcs[0]
        assert wc.ok and wc.opcode is WrOpcode.RDMA_READ
        assert wc.validity.complete
        assert bytes(sink.view()) == data

    def test_read_larger_than_segment(self, ud):
        devA, devB = ud["devs"]
        size = 150_000
        data = bytes((i * 3) & 0xFF for i in range(size))
        src_region = devB.reg_mr(bytearray(data), Access.remote_read(), ud["pds"][1])
        sink = devA.reg_mr(size, Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            dest=ud["qps"][1].address,
            remote_stag=src_region.stag, remote_offset=0,
        ))
        wcs = _poll(ud, 0)
        assert wcs[0].ok and bytes(sink.view()) == data

    def test_read_with_lost_response_completes_partial(self, ud):
        devA, devB = ud["devs"]
        size = 150_000
        src_region = devB.reg_mr(bytearray(size), Access.remote_read(), ud["pds"][1])
        sink = devA.reg_mr(size, Access.local_only(), ud["pds"][0])
        # Drop a frame of the response train (host 1 egress).
        ud["tb"].set_egress_loss(1, ExplicitLoss([10]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            dest=ud["qps"][1].address,
            remote_stag=src_region.stag, remote_offset=0,
        ))
        ud["sim"].run(until=UD_REASSEMBLY_TIMEOUT_NS + 100 * MS)
        wcs = ud["cqs"][0].poll()
        assert wcs
        assert wcs[0].status in (WcStatus.PARTIAL_MESSAGE, WcStatus.SUCCESS)

    def test_read_whose_last_response_is_late_is_reaped_once(self, ud):
        """The response's last segment is held past the reap timeout:
        the read completes PARTIAL_MESSAGE with the bytes that did
        arrive, and the late segment is counted, not completed again."""
        devA, devB = ud["devs"]
        seg = ud["qps"][1].max_seg_payload
        size = seg + 100  # the second, last segment is a single frame
        data = bytes((i * 7) & 0xFF for i in range(size))
        src_region = devB.reg_mr(bytearray(data), Access.remote_read(), ud["pds"][1])
        sink = devA.reg_mr(size, Access.local_only(), ud["pds"][0])

        def read():
            ud["qps"][0].post_send(SendWR(
                opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
                dest=ud["qps"][1].address,
                remote_stag=src_region.stag, remote_offset=0,
            ))

        read()
        assert _poll(ud, 0)[0].ok
        frames = ud["tb"].hosts[1].port.tx_frames
        ud["tb"].set_egress_faults(1, _HoldFrame(frames, 2 * UD_REASSEMBLY_TIMEOUT_NS))
        sink.view()[:] = bytes(size)
        start = ud["sim"].now
        read()
        ud["sim"].run(until=start + UD_REASSEMBLY_TIMEOUT_NS + 10 * MS)
        rx = ud["qps"][0].rx
        wcs = ud["cqs"][0].poll()
        assert [wc.status for wc in wcs] == [WcStatus.PARTIAL_MESSAGE]
        assert wcs[0].byte_len == seg
        assert bytes(sink.view(0, seg)) == data[:seg]
        assert (rx.reaped_partial, rx.duplicate_segments) == (1, 0)
        ud["sim"].run(until=start + 3 * UD_REASSEMBLY_TIMEOUT_NS)
        assert ud["cqs"][0].poll() == []
        assert (rx.reaped_partial, rx.duplicate_segments) == (1, 1)

    def test_read_protection_error_reported(self, ud):
        devA, devB = ud["devs"]
        region = devB.reg_mr(64, Access.local_only(), ud["pds"][1])  # no REMOTE_READ
        sink = devA.reg_mr(64, Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            dest=ud["qps"][1].address,
            remote_stag=region.stag, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1


class TestRdModes:
    def test_rd_sendrecv_reliable_under_loss(self, zero_testbed, zero_devices):
        from repro.simnet.loss import BernoulliLoss

        devA, devB = zero_devices
        pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
        cqA, cqB = devA.create_cq(), devB.create_cq()
        qpA = devA.create_ud_qp(pdA, cqA, port=9100, reliable=True)
        qpB = devB.create_ud_qp(pdB, cqB, port=9101, reliable=True)
        zero_testbed.set_egress_loss(0, BernoulliLoss(0.1, seed=6))
        dst = devB.reg_mr(1024, Access.local_only(), pdB)
        msgs = 30
        for _ in range(msgs):
            qpB.post_recv(RecvWR(sges=[Sge(dst)]))
        src = devA.reg_mr(bytearray(b"R" * 100), Access.local_only(), pdA)
        for _ in range(msgs):
            qpA.post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address,
                signaled=False,
            ))
        received = 0
        for _ in range(msgs):
            fut = cqB.poll_wait(timeout_ns=5000 * MS)
            zero_testbed.sim.run_until(fut, limit=RUN_LIMIT)
            if fut.value and fut.value[0].ok:
                received += 1
        assert received == msgs  # reliability: nothing lost


class TestReapTimers:
    """A reap timer is armed only for a message its first segment does
    not complete; the timer a completing segment would have armed and
    cancelled at once is never pushed, and loss is still reaped."""

    def _send(self, ud, opcode, src, **kw):
        ud["qps"][0].post_send(SendWR(
            opcode=opcode, sges=[Sge(src)], dest=ud["qps"][1].address,
            signaled=False, **kw,
        ))

    def test_single_segment_send_leaves_no_cancelled_timer(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"one segment"), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(64, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        self._send(ud, WrOpcode.SEND, src)
        ud["sim"].run(until=1 * MS)
        wcs = ud["cqs"][1].poll()
        assert wcs and wcs[0].ok and wcs[0].byte_len == 11
        assert len(ud["sim"]._heap) - ud["sim"].pending() == 0
        assert not ud["qps"][1].rx._ud_timers

    def test_single_segment_write_record_leaves_no_cancelled_timer(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"one segment"), Access.local_only(), ud["pds"][0])
        sink = devB.reg_mr(64, Access.remote_write(), ud["pds"][1])
        self._send(ud, WrOpcode.RDMA_WRITE_RECORD, src, remote_stag=sink.stag)
        ud["sim"].run(until=1 * MS)
        wcs = ud["cqs"][1].poll()
        assert wcs and wcs[0].ok and wcs[0].validity.complete
        assert len(ud["sim"]._heap) - ud["sim"].pending() == 0

    def test_back_to_back_reads_share_one_reap_timer(self, ud):
        """A finished UD RDMA Read parks its cancelled reap timer for the
        next read, so reads in a row leave at most one tombstone queued
        rather than one per read."""
        devA, devB = ud["devs"]
        data = b"remote-content" * 4
        region = devB.reg_mr(bytearray(data), Access.remote_read(), ud["pds"][1])
        sink = devA.reg_mr(len(data), Access.local_only(), ud["pds"][0])
        sim = ud["sim"]
        for _ in range(8):
            ud["qps"][0].post_send(SendWR(
                opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
                dest=ud["qps"][1].address,
                remote_stag=region.stag, remote_offset=0,
            ))
            sim.run(until=sim.now + 1 * MS)
            wcs = ud["cqs"][0].poll()
            assert [wc.status for wc in wcs] == [WcStatus.SUCCESS]
        assert bytes(sink.view()) == data
        assert len(sim._heap) - sim.pending() <= 1

    def test_multi_segment_send_with_lost_last_segment_is_reaped(self, ud):
        devA, devB = ud["devs"]
        size = 200_000
        src = devA.reg_mr(bytearray(size), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(size, Access.local_only(), ud["pds"][1])
        for _ in range(2):
            ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        # Count one message's frames, then drop exactly the last frame of
        # an identical second message: its LAST segment never arrives.
        self._send(ud, WrOpcode.SEND, src)
        ud["sim"].run(until=10 * MS)
        assert [wc.status for wc in ud["cqs"][1].poll()] == [WcStatus.SUCCESS]
        frames = ud["tb"].hosts[0].port.tx_frames
        ud["tb"].set_egress_loss(0, ExplicitLoss([frames]))
        start = ud["sim"].now
        self._send(ud, WrOpcode.SEND, src)
        ud["sim"].run(until=start + UD_REASSEMBLY_TIMEOUT_NS - 1 * MS)
        assert ud["cqs"][1].poll() == []
        ud["sim"].run(until=start + UD_REASSEMBLY_TIMEOUT_NS + 10 * MS)
        wcs = ud["cqs"][1].poll()
        assert wcs and wcs[0].status is WcStatus.PARTIAL_MESSAGE
        assert 0 < wcs[0].byte_len < size
        assert ud["qps"][1].rx.reaped_partial == 1

    def test_single_segment_into_deregistered_buffer_is_reaped(self, ud):
        """A placement that fails still arms the reap timer, so the
        consumed receive completes PARTIAL_MESSAGE instead of vanishing."""
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"lost"), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(64, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        dst.invalidate()
        self._send(ud, WrOpcode.SEND, src)
        ud["sim"].run(until=UD_REASSEMBLY_TIMEOUT_NS + 10 * MS)
        wcs = ud["cqs"][1].poll()
        assert wcs and wcs[0].status is WcStatus.PARTIAL_MESSAGE
        assert wcs[0].byte_len == 0
        assert ud["qps"][1].rx.remote_access_errors == 1
