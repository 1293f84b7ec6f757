"""ReceivePool: one registered slot per posted receive, reposted as is."""

import pytest

from repro.core.verbs import ReceivePool, SendWR, Sge, WcStatus, WorkCompletion, WrOpcode
from repro.simnet.engine import MS

PORT = 9000
SLOTS = 4


@pytest.fixture
def pool_pair(zero_testbed, zero_devices):
    """A 4-slot pool on host 1's UD QP that records every completion it
    hands over, and ``send(n)``: ``n`` 100 B datagrams from host 0."""
    tx, rx = zero_devices
    seen = []
    qp = rx.create_ud_qp(rx.alloc_pd(), rx.create_cq(), port=PORT)
    pool = ReceivePool(qp, SLOTS, 256, lambda wc, mr: seen.append((wc, mr)))
    tx_qp = tx.create_ud_qp(tx.alloc_pd(), tx.create_cq())
    src = tx.reg_mr(bytearray(b"x" * 100))
    sim = zero_testbed.sim

    def send(n):
        for _ in range(n):
            tx_qp.post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], dest=(1, PORT), signaled=False))
        sim.run(until=sim.now + 10 * MS)

    return pool, send, seen


def test_each_slot_reposts_its_one_wr(pool_pair):
    pool, send, seen = pool_pair
    qp = pool.qp
    wrs = list(pool.slots.values())
    assert [wr.wr_id for wr in wrs] == list(pool.slots)
    assert [wr.sges[0].mr.stag for wr in wrs] == list(pool.slots)
    send(10)
    assert len(seen) == 10
    assert all(wc.ok and mr is pool.slots[wc.wr_id].sges[0].mr for wc, mr in seen)
    assert qp.recv_posts == SLOTS + 10
    assert len(qp.rq) == SLOTS
    assert all(any(wr is slot for slot in wrs) for wr in qp.rq)


def test_nothing_is_posted_once_the_qp_is_in_error(zero_testbed, zero_devices):
    """An owner that closes the QP in its handler: the slot is not
    reposted, and the pool stops draining, so the flushed receives stay
    in the CQ."""
    tx, rx = zero_devices
    seen = []
    qp = rx.create_ud_qp(rx.alloc_pd(), rx.create_cq(), port=PORT)

    def close_on_first(wc, mr):
        seen.append(wc)
        qp.close()

    ReceivePool(qp, SLOTS, 256, close_on_first)
    tx_qp = tx.create_ud_qp(tx.alloc_pd(), tx.create_cq())
    src = tx.reg_mr(bytearray(b"x" * 100))
    for _ in range(3):
        tx_qp.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=(1, PORT), signaled=False))
    zero_testbed.sim.run(until=10 * MS)
    assert [wc.status for wc in seen] == [WcStatus.SUCCESS]
    assert qp.recv_posts == SLOTS and not qp.rq
    flushed = qp.rq_cq.poll(2 * SLOTS)
    assert len(flushed) == SLOTS - 1
    assert all(wc.status is WcStatus.FLUSHED for wc in flushed)


def test_a_flushed_slot_is_not_reposted(pool_pair):
    """The FLUSHED rule holds on its own, whatever the QP's state."""
    pool, send, seen = pool_pair
    qp = pool.qp
    stag, wr = next(iter(pool.slots.items()))
    qp.rq.remove(wr)
    qp.rq_cq.push(WorkCompletion(stag, WrOpcode.SEND, WcStatus.FLUSHED))
    send(0)
    assert [(wc.status, mr) for wc, mr in seen] == [(WcStatus.FLUSHED, wr.sges[0].mr)]
    assert qp.state != "ERROR"
    assert qp.recv_posts == SLOTS and wr not in qp.rq
    # The pool still drains: the other slots keep receiving.
    send(2)
    assert len(seen) == 3 and qp.recv_posts == SLOTS + 2


def test_a_completion_without_a_slot_is_handed_over_alone(pool_pair):
    pool, send, seen = pool_pair
    qp = pool.qp
    qp.rq_cq.push(WorkCompletion(0, WrOpcode.RDMA_WRITE_RECORD, WcStatus.SUCCESS))
    send(0)
    assert [(wc.wr_id, mr) for wc, mr in seen] == [(0, None)]
    assert qp.recv_posts == SLOTS


def test_close_invalidates_every_slot(pool_pair):
    pool, _, _ = pool_pair
    registry = pool.qp.device.registry
    before = len(registry)
    pool.qp.close()
    pool.close()
    assert all(wr.sges[0].mr.invalidated for wr in pool.slots.values())
    assert len(registry) == before - SLOTS
