"""End-to-end CRC protection: corrupted datagrams are detected and
dropped by the DDP-layer CRC32, never placed into memory."""

from dataclasses import replace

import pytest

from repro.bench.harness import VerbsEndpointPair
from repro.core.verbs import RecvWR, RnicDevice, SendWR, Sge, WcStatus, WrOpcode
from repro.memory.region import Access
from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS, SEC
from repro.simnet.faults import FaultModel
from repro.simnet.packet import Frame
from repro.transport.ip import IpPacket
from repro.simnet.loss import BitErrorModel
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks


@pytest.fixture
def corrupt_world():
    tb = build_testbed(costs=zero_cost_model())
    nets = install_stacks(tb)
    devs = [RnicDevice(n) for n in nets]
    model = BitErrorModel(1.0, seed=4)  # corrupt every datagram
    nets[1].udp.corruption = model
    return tb, devs, model


def test_biterror_model_statistics():
    model = BitErrorModel(0.25, seed=9)
    changed = 0
    for _ in range(4000):
        data = b"\x00" * 64
        if model.apply(data) != data:
            changed += 1
    assert 0.2 < changed / 4000 < 0.3
    assert model.corrupted == changed
    model.reset()
    assert model.corrupted == 0


def test_biterror_never_mutates_original():
    model = BitErrorModel(1.0, seed=1)
    original = b"immutable-data"
    out = model.apply(original)
    assert original == b"immutable-data"
    assert out != original


def test_biterror_validation():
    with pytest.raises(ValueError):
        BitErrorModel(1.5)


def test_corrupted_send_dropped_by_crc(corrupt_world):
    tb, devs, model = corrupt_world
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    dst = devs[1].reg_mr(64, Access.local_only(), pds[1])
    qpB.post_recv(RecvWR(sges=[Sge(dst)]))
    src = devs[0].reg_mr(bytearray(b"will-be-mangled"), Access.local_only(), pds[0])
    qpA.post_send(SendWR(
        opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address, signaled=False,
    ))
    tb.sim.run(until=100 * MS)
    assert qpB.crc_drops == 1
    assert not cqB.poll()
    assert bytes(dst.view(0, 15)) == b"\x00" * 15  # nothing placed


def test_corrupted_write_record_never_touches_memory(corrupt_world):
    tb, devs, model = corrupt_world
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    sink = devs[1].reg_mr(4096, Access.remote_write(), pds[1])
    src = devs[0].reg_mr(bytearray(b"Z" * 1000), Access.local_only(), pds[0])
    qpA.post_send(SendWR(
        opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
        dest=qpB.address, remote_stag=sink.stag, remote_offset=0, signaled=False,
    ))
    tb.sim.run(until=100 * MS)
    assert qpB.crc_drops == 1
    assert bytes(sink.view(0, 1000)) == b"\x00" * 1000


def test_partial_corruption_rate_partially_delivers():
    tb = build_testbed(costs=zero_cost_model())
    nets = install_stacks(tb)
    devs = [RnicDevice(n) for n in nets]
    nets[1].udp.corruption = BitErrorModel(0.3, seed=3)
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    dst = devs[1].reg_mr(64, Access.local_only(), pds[1])
    n = 60
    for _ in range(n):
        qpB.post_recv(RecvWR(sges=[Sge(dst)]))
    src = devs[0].reg_mr(bytearray(b"ok"), Access.local_only(), pds[0])
    for _ in range(n):
        qpA.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address,
            signaled=False,
        ))
    tb.sim.run(until=500 * MS)
    delivered = cqB.completions_total
    assert delivered + qpB.crc_drops == n
    assert 0 < qpB.crc_drops < n


class _CorruptFirstDatagram(FaultModel):
    """Flips the last byte (the DDP CRC trailer) of the first datagram."""

    def _admit(self, frame, now):
        if self.seen == 1:
            pkt = frame.payload
            dgram = pkt.payload
            data = dgram.data[:-1] + bytes([dgram.data[-1] ^ 0xFF])
            pkt = IpPacket(pkt.src, pkt.dst, pkt.proto, replace(dgram, data=data),
                           pkt.total_size, pkt.ident, pkt.frag_offset, pkt.frag_size,
                           pkt.more_frags)
            frame = Frame(frame.src, frame.dst, pkt, frame.payload_size)
        return [(0, frame)]


def test_rd_repairs_a_corrupted_segment_like_a_loss():
    """RD checks the DDP CRC before a segment enters its window, so a
    corrupted one is not acknowledged: the sender retransmits it and the
    message arrives once, instead of completing SUCCESS undelivered."""
    pair = VerbsEndpointPair.build("rd_sendrecv")
    pair.testbed.set_egress_faults(0, _CorruptFirstDatagram())
    pair._prepost_recvs(1, 2, 1000)
    pair._post_message(0, 1000, signaled=True)
    pair.sim.run(until=pair.sim.now + SEC)
    qp0, qp1 = pair.qps
    assert [wc.status for wc in pair.cqs[0].poll(4)] == [WcStatus.SUCCESS]
    assert [(wc.status, wc.byte_len) for wc in pair.cqs[1].poll(4)] == [(WcStatus.SUCCESS, 1000)]
    assert qp1.crc_drops == 1
    assert qp0.rd.retransmissions == 1
