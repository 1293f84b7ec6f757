"""Verbs edge cases: SGE lists, PD isolation, shared CQs, QP misuse,
deregistration races, zero-byte operations."""

import pytest

from repro.core.verbs import QpError, RecvWR, SendWR, Sge, WrOpcode
from repro.memory.region import Access
from repro.memory.sge import gather, scatter, sge_total
from repro.memory.registry import StagRegistry
from repro.simnet.engine import MS, SEC

RUN_LIMIT = 600 * SEC


@pytest.fixture
def ud(zero_testbed, zero_devices):
    devA, devB = zero_devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    qpA = devA.create_ud_qp(pdA, cqA, port=9000)
    qpB = devB.create_ud_qp(pdB, cqB, port=9001)
    return dict(tb=zero_testbed, sim=zero_testbed.sim, devs=(devA, devB),
                pds=(pdA, pdB), cqs=(cqA, cqB), qps=(qpA, qpB))


def _poll(env, side, timeout=5000 * MS):
    fut = env["cqs"][side].poll_wait(timeout_ns=timeout)
    env["sim"].run_until(fut, limit=RUN_LIMIT)
    return fut.value


class TestSgeMechanics:
    def test_sge_defaults_to_whole_region(self):
        reg = StagRegistry()
        mr = reg.register(100)
        sge = Sge(mr)
        assert sge.offset == 0 and sge.length == 100

    def test_sge_bounds_validated(self):
        reg = StagRegistry()
        mr = reg.register(10)
        with pytest.raises(ValueError):
            Sge(mr, 5, 10)

    def test_gather_multiple_sges(self):
        reg = StagRegistry()
        m1 = reg.register(bytearray(b"abc"))
        m2 = reg.register(bytearray(b"defgh"))
        assert gather([Sge(m1), Sge(m2, 1, 3)]) == b"abcefg"

    def test_scatter_offset_spanning_sges(self):
        reg = StagRegistry()
        m1 = reg.register(4)
        m2 = reg.register(4)
        scatter([Sge(m1), Sge(m2)], 2, b"XXXX")
        assert bytes(m1.view()) == b"\x00\x00XX"
        assert bytes(m2.view()) == b"XX\x00\x00"

    def test_scatter_overrun_rejected(self):
        reg = StagRegistry()
        m1 = reg.register(4)
        with pytest.raises(ValueError):
            scatter([Sge(m1)], 2, b"toolong")

    def test_sge_total(self):
        reg = StagRegistry()
        m = reg.register(100)
        assert sge_total([Sge(m, 0, 30), Sge(m, 50, 20)]) == 50

    def test_multi_sge_send_gathers(self, ud):
        devA, devB = ud["devs"]
        m1 = devA.reg_mr(bytearray(b"first-"), Access.local_only(), ud["pds"][0])
        m2 = devA.reg_mr(bytearray(b"second"), Access.local_only(), ud["pds"][0])
        dst = devB.reg_mr(64, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(m1), Sge(m2)],
            dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].byte_len == 12
        assert bytes(dst.view(0, 12)) == b"first-second"

    def test_multi_sge_recv_scatters(self, ud):
        devA, devB = ud["devs"]
        src = devA.reg_mr(bytearray(b"0123456789"), Access.local_only(), ud["pds"][0])
        d1 = devB.reg_mr(4, Access.local_only(), ud["pds"][1])
        d2 = devB.reg_mr(6, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(d1), Sge(d2)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=ud["qps"][1].address,
        ))
        _poll(ud, 1)
        assert bytes(d1.view()) == b"0123"
        assert bytes(d2.view()) == b"456789"


class TestProtectionDomains:
    def test_write_record_rejected_across_pds(self, ud):
        """A stag registered under one PD must not be usable through a QP
        in a different PD."""
        devA, devB = ud["devs"]
        other_pd = devB.alloc_pd()
        sink = devB.reg_mr(64, Access.remote_write(), other_pd)  # wrong PD
        src = devA.reg_mr(bytearray(8), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1
        assert bytes(sink.view(0, 8)) == b"\x00" * 8

    def test_deregistered_stag_rejected(self, ud):
        devA, devB = ud["devs"]
        sink = devB.reg_mr(64, Access.remote_write(), ud["pds"][1])
        devB.dereg_mr(sink)
        src = devA.reg_mr(bytearray(8), Access.local_only(), ud["pds"][0])
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            dest=ud["qps"][1].address, remote_stag=sink.stag, remote_offset=0,
        ))
        ud["sim"].run(until=50 * MS)
        assert ud["qps"][1].rx.remote_access_errors == 1


class TestQpMisuse:
    def test_send_sge_needs_local_read(self, ud):
        devA = ud["devs"][0]
        wo = devA.registry.register(bytearray(8), Access.LOCAL_WRITE, ud["pds"][0])
        with pytest.raises(QpError):
            ud["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(wo)], dest=ud["qps"][1].address,
            ))

    def test_recv_sge_needs_local_write(self, ud):
        devB = ud["devs"][1]
        ro = devB.registry.register(bytearray(8), Access.LOCAL_READ, ud["pds"][1])
        with pytest.raises(QpError):
            ud["qps"][1].post_recv(RecvWR(sges=[Sge(ro)]))

    def test_any_sge_lacking_the_right_rejects_the_wr(self, ud):
        devA, devB = ud["devs"]
        rw = Access.local_only()
        good_src = devA.registry.register(bytearray(8), rw, ud["pds"][0])
        wo = devA.registry.register(bytearray(8), Access.LOCAL_WRITE, ud["pds"][0])
        with pytest.raises(QpError, match="send SGE lacks LOCAL_READ"):
            ud["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(good_src), Sge(wo)],
                dest=ud["qps"][1].address,
            ))
        good_sink = devB.registry.register(bytearray(8), rw, ud["pds"][1])
        ro = devB.registry.register(bytearray(8), Access.LOCAL_READ, ud["pds"][1])
        with pytest.raises(QpError, match="receive SGE lacks LOCAL_WRITE"):
            ud["qps"][1].post_recv(RecvWR(sges=[Sge(good_sink), Sge(ro)]))
        assert ud["qps"][1].recv_posts == 0

    def test_closed_ud_qp_rejects_posts(self, ud):
        qp = ud["qps"][0]
        qp.close()
        src = ud["devs"][0].reg_mr(bytearray(4), Access.local_only(), ud["pds"][0])
        with pytest.raises(QpError):
            qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)],
                                dest=ud["qps"][1].address))

    def test_zero_byte_send(self, ud):
        devB = ud["devs"][1]
        dst = devB.reg_mr(16, Access.local_only(), ud["pds"][1])
        ud["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].ok and wcs[0].byte_len == 0

    def test_zero_byte_recv_matches_zero_byte_send(self, ud):
        ud["qps"][1].post_recv(RecvWR(sges=[]))
        ud["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[], dest=ud["qps"][1].address,
        ))
        wcs = _poll(ud, 1)
        assert wcs[0].ok


class TestSharedCqs:
    def test_two_qps_one_cq(self, zero_testbed, zero_devices):
        devA, devB = zero_devices
        pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
        shared_cq = devB.create_cq()
        qp1 = devB.create_ud_qp(pdB, shared_cq, port=7001)
        qp2 = devB.create_ud_qp(pdB, shared_cq, port=7002)
        dst = devB.reg_mr(64, Access.local_only(), pdB)
        qp1.post_recv(RecvWR(sges=[Sge(dst)]))
        qp2.post_recv(RecvWR(sges=[Sge(dst)]))
        sender = devA.create_ud_qp(pdA, devA.create_cq())
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), pdA)
        for port in (7001, 7002):
            sender.post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], dest=(1, port),
                signaled=False,
            ))
        zero_testbed.sim.run(until=100 * MS)
        assert shared_cq.completions_total == 2


class TestWorkRequestDefaults:
    def test_wr_ids_unique(self, zero_devices):
        """A WR posted without a wr_id takes its device's next number."""
        dev = zero_devices[0]
        pd = dev.alloc_pd()
        qp = dev.create_ud_qp(pd, dev.create_cq())
        mr = dev.reg_mr(64, Access.local_only(), pd)
        a, b, c = (RecvWR(sges=[Sge(mr)]) for _ in range(3))
        assert a.wr_id is None
        qp.post_recv(a)
        qp.post_recv(b)
        qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(mr)], dest=qp.address,
                            signaled=False, wr_id=99))
        qp.post_recv(c)
        assert (a.wr_id, b.wr_id, c.wr_id) == (1, 2, 3)

    def test_send_wr_length(self):
        reg = StagRegistry()
        mr = reg.register(100)
        wr = SendWR(opcode=WrOpcode.SEND, sges=[Sge(mr, 0, 40), Sge(mr, 50, 10)])
        assert wr.length == 50

    def test_recv_wr_capacity(self):
        reg = StagRegistry()
        mr = reg.register(64)
        assert RecvWR(sges=[Sge(mr)]).capacity == 64
        assert RecvWR(sges=[]).capacity == 0
