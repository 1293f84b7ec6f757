"""The send queue: every posted send and Read is held on its QP, in
post order, until it completes, and every completion is counted.

A signaled send completes SUCCESS only once its message has earned it
(RC: the LAST segment reached the LLP while the QP was not in ERROR;
RD: the LAST segment was acknowledged); an error flushes whatever the
QP still owes.
"""

import pytest

from repro.bench import scenarios
from repro.bench.harness import VerbsEndpointPair
from repro.core.verbs import CompletionQueue, RecvWR, SendWR, Sge, WcStatus, WrOpcode
from repro.memory.region import Access
from repro.simnet.engine import SEC, US
from repro.simnet.loss import BernoulliLoss


def _statuses(cq):
    return [(wc.wr_id, wc.opcode, wc.status) for wc in cq.poll(16)]


@pytest.mark.parametrize("mode", ["rc_sendrecv", "rcsctp_sendrecv"])
def test_a_send_the_qp_errors_under_completes_flushed_once(mode):
    pair = VerbsEndpointPair.build(mode)
    q0 = pair.qps[0]
    q0.post_send(SendWR(
        opcode=WrOpcode.SEND, sges=[Sge(pair.send_mrs[0], 0, 1000)], wr_id=9,
    ))
    q0._enter_error("local error")
    pair.sim.run(until=pair.sim.now + SEC)
    assert _statuses(pair.cqs[0]) == [(9, WrOpcode.SEND, WcStatus.FLUSHED)]
    assert _statuses(pair.cqs[1]) == []
    assert not q0.sq


def test_an_outstanding_rc_read_completes_flushed():
    pair = VerbsEndpointPair.build("rc_sendrecv")
    q0, q1 = pair.qps
    source = pair.devices[1].reg_mr(bytearray(60_000), Access.remote_read(), q1.pd)
    q0.post_send(SendWR(
        opcode=WrOpcode.RDMA_READ, sges=[Sge(pair.recv_mrs[0], 0, 60_000)],
        remote_stag=source.stag, wr_id=5,
    ))
    pair.sim.run(until=pair.sim.now + 20 * US)
    assert _statuses(pair.cqs[0]) == []  # the response is still arriving
    q0._enter_error("local error")
    pair.sim.run(until=pair.sim.now + SEC)
    assert _statuses(pair.cqs[0]) == [(5, WrOpcode.RDMA_READ, WcStatus.FLUSHED)]
    assert not q0.sq


def test_rd_peer_failure_flushes_a_message_still_on_the_cpu_once():
    """Message 2 (60 KB) has no segment on RD yet when message 1's
    timeout declares the peer unreachable, and then the path is back.
    It was owed to a failed peer, so it completes FLUSHED, and once,
    and none of its segments leaves on a fresh window."""
    pair = VerbsEndpointPair.build("rd_sendrecv", rd_opts={"max_retries": 0})
    q0 = pair.qps[0]
    peer = pair.dest(1)
    handed = []
    sendto = q0.rd.sendto

    def note(*args, **kwargs):
        handed.append(pair.sim.now)
        sendto(*args, **kwargs)

    q0.rd.sendto = note
    pair.testbed.set_egress_loss(0, BernoulliLoss(1.0, seed=1))
    pair._post_message(0, 100, signaled=True)
    while not handed:  # the CPU is still registering the pair's buffers
        pair.sim.run(until=pair.sim.now + 100 * US)
    fails_at = handed[0] + q0.rd.current_rto_ns(peer)
    pair.sim.run(until=fails_at - 1)
    pair._post_message(0, 60_000, signaled=True)
    pair.testbed.set_egress_loss(0, None)
    pair.sim.run(until=pair.sim.now + SEC)
    assert peer in q0.failed_peers and len(handed) == 1
    assert q0.drops_closed == -(-60_000 // q0.max_seg_payload)
    assert _statuses(pair.cqs[0]) == [
        (1, WrOpcode.SEND, WcStatus.FLUSHED), (2, WrOpcode.SEND, WcStatus.FLUSHED),
    ]
    assert q0.rd_flushed_wrs == 2 and not q0.sq


def test_read_local_error_and_flush_completions_are_counted():
    pair = VerbsEndpointPair.build("rc_sendrecv")
    q0, q1 = pair.qps
    source = pair.devices[1].reg_mr(bytearray(4000), Access.remote_read(), q1.pd)
    sink = Sge(pair.recv_mrs[0], 0, 4000)
    q0.post_send(SendWR(opcode=WrOpcode.RDMA_READ, sges=[sink], remote_stag=source.stag))
    q0.post_send(SendWR(opcode=WrOpcode.RDMA_READ, sges=[sink, sink],
                        remote_stag=source.stag))
    pair.sim.run(until=pair.sim.now + SEC)
    q0.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[0], 0, 100)]))
    q0.close()
    assert q0.completions == {
        ("sq", "success"): 1, ("sq", "local_length_error"): 1, ("rq", "flushed"): 1,
    }
    assert [wc.status for wc in pair.cqs[0].poll(8)] == [
        WcStatus.LOCAL_LENGTH_ERROR, WcStatus.SUCCESS, WcStatus.FLUSHED,
    ]


def test_a_row_run_twice_in_one_process_completes_the_same_wr_ids(monkeypatch):
    """WRs posted without a wr_id are numbered by their device, so the
    numbers do not depend on what ran earlier in the process."""
    push = CompletionQueue.push
    wr_ids = []

    def note(cq, wc):
        wr_ids.append(wc.wr_id)
        push(cq, wc)

    monkeypatch.setattr(CompletionQueue, "push", note)
    runs = []
    for _ in range(2):
        scenarios.run("ud_sendrecv-pingpong-64")
        runs.append(wr_ids[:])
        wr_ids.clear()
    assert runs[0] == runs[1] and len(runs[0]) > 40


def test_a_peer_closing_the_sctp_association_errors_the_qp():
    """Sends on an association the peer closed would be dropped, so the
    QP errors and flushes instead of completing them SUCCESS."""
    pair = VerbsEndpointPair.build("rcsctp_sendrecv")
    q0, q1 = pair.qps
    q0.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[0], 0, 100)], wr_id=4))
    q1.close()
    pair.sim.run(until=pair.sim.now + SEC)
    assert (q0.state, q0.assoc.state) == ("ERROR", "CLOSED")
    assert q0.terminate_reason == "SCTP association closed"
    assert _statuses(pair.cqs[0]) == [(4, WrOpcode.SEND, WcStatus.FLUSHED)]


@pytest.mark.parametrize("mode", ["ud_sendrecv", "rd_sendrecv"])
def test_a_flushed_datagram_send_never_reaches_the_peer(mode):
    """An errored QP sends nothing but a TERMINATE: the send the error
    flushed is dropped as it leaves the CPU, on UD as on RC."""
    pair = VerbsEndpointPair.build(mode)
    q0, q1 = pair.qps
    pair._post_message(0, 100, signaled=True)
    q0.modify_qp("ERROR")
    q0.tx.send_terminate("going away", dest=pair.dest(1))
    pair.sim.run(until=pair.sim.now + SEC)
    assert [wc.status for wc in pair.cqs[0].poll(4)] == [WcStatus.FLUSHED]
    assert q0.drops_closed == 1
    assert q1.rx.drops_no_recv_posted == 0
    assert q1.terminate_reason == "going away"


def test_modify_qp_to_error_flushes_both_queues():
    pair = VerbsEndpointPair.build("ud_sendrecv")
    q0 = pair.qps[0]
    q0.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[0], 0, 100)], wr_id=1))
    q0.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(pair.send_mrs[0], 0, 100)],
                        dest=pair.dest(1), wr_id=2))
    q0.modify_qp("ERROR")
    pair.sim.run(until=pair.sim.now + SEC)
    assert _statuses(pair.cqs[0]) == [
        (1, WrOpcode.SEND, WcStatus.FLUSHED), (2, WrOpcode.SEND, WcStatus.FLUSHED),
    ]
    assert not q0.rq and not q0.sq
