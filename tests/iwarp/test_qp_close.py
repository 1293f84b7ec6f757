"""QP lifecycle: the modify_qp ladder, illegal transitions, and the
close-time flush of posted receive WRs (standard verbs semantics — a
destroyed/errored QP completes outstanding WRs with FLUSHED rather than
leaking them)."""

import pytest

from repro.core.verbs import QpError, RecvWR, SendWR, Sge, WrOpcode
from repro.core.verbs.qp import ERROR, INIT, RESET, RTR, RTS, SQD
from repro.core.verbs.wr import WcStatus
from repro.memory.region import Access


@pytest.fixture
def ud(zero_testbed, zero_devices):
    devA, devB = zero_devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    qpA = devA.create_ud_qp(pdA, cqA, port=9000)
    qpB = devB.create_ud_qp(pdB, cqB, port=9001)
    return dict(tb=zero_testbed, sim=zero_testbed.sim, devs=(devA, devB),
                pds=(pdA, pdB), cqs=(cqA, cqB), qps=(qpA, qpB))


class TestClose:
    def test_close_flushes_posted_receives(self, ud):
        qp = ud["qps"][0]
        dev, pd = ud["devs"][0], ud["pds"][0]
        wr_ids = []
        for _ in range(3):
            mr = dev.reg_mr(64, Access.local_only(), pd)
            wr = RecvWR(sges=[Sge(mr)])
            qp.post_recv(wr)
            wr_ids.append(wr.wr_id)  # numbered by the device at post
        qp.close()
        assert qp.state == ERROR
        assert not qp.rq  # nothing left dangling on the queue
        wcs = ud["cqs"][0].poll(max_entries=8)  # flushed synchronously
        assert [wc.wr_id for wc in wcs] == wr_ids
        assert all(wc.status is WcStatus.FLUSHED and not wc.ok for wc in wcs)

    def test_close_is_idempotent(self, ud):
        qp = ud["qps"][0]
        qp.close()
        qp.close()  # second close is a no-op, not an illegal transition
        assert qp.state == ERROR

    def test_clean_close_reports_no_terminate_reason(self, ud):
        qp = ud["qps"][0]
        qp.close()
        assert qp.terminate_reason is None

    def test_posting_after_close_rejected(self, ud):
        qp = ud["qps"][0]
        dev, pd = ud["devs"][0], ud["pds"][0]
        qp.close()
        mr = dev.reg_mr(64, Access.local_only(), pd)
        with pytest.raises(QpError):
            qp.post_recv(RecvWR(sges=[Sge(mr)]))
        with pytest.raises(QpError):
            qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(mr)],
                                dest=ud["qps"][1].address))


class TestModifyQpLadder:
    def test_sqd_drains_and_resumes_send_queue(self, ud):
        qp = ud["qps"][0]
        src = ud["devs"][0].reg_mr(bytearray(4), Access.local_only(), ud["pds"][0])
        qp.modify_qp(SQD)
        with pytest.raises(QpError):
            qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)],
                                dest=ud["qps"][1].address))
        qp.modify_qp(RTS)  # resume
        qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)],
                            dest=ud["qps"][1].address, signaled=False))

    def test_recycle_through_reset_walks_the_full_ladder(self, ud):
        qp = ud["qps"][0]
        qp.modify_qp(ERROR)
        qp.terminate_reason = "unit-test"
        qp.modify_qp(RESET)
        assert qp.terminate_reason is None  # RESET wipes the error record
        for state in (INIT, RTR, RTS):
            qp.modify_qp(state)
        assert qp.state == RTS

    def test_illegal_transitions_raise(self, ud):
        qp = ud["qps"][0]
        for bad in (INIT, RTR):  # cannot walk the ladder backwards from RTS
            with pytest.raises(QpError):
                qp.modify_qp(bad)
        assert qp.state == RTS  # failed modify leaves the state untouched
        qp.modify_qp(ERROR)
        with pytest.raises(QpError):
            qp.modify_qp(RTS)  # ERROR only recycles through RESET
