"""Connected (RC) verbs tests: the traditional iWARP baseline."""

import pytest

from repro.bench.harness import VerbsEndpointPair
from repro.core.verbs import (
    QpError, RecvWR, SendWR, Sge, WcStatus, WrOpcode,
)
from repro.memory.region import Access
from repro.simnet.engine import MS, SEC

RUN_LIMIT = 600 * SEC


@pytest.fixture
def rc(zero_testbed, zero_devices):
    """An established RC pair (host0 active, host1 passive)."""
    devA, devB = zero_devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    listener = devB.rc_listen(4791, pdB, lambda: cqB)
    qpA = devA.rc_connect((1, 4791), pdA, cqA)
    accepted = listener.accept_future()
    zero_testbed.sim.run_until(qpA.ready, limit=RUN_LIMIT)
    zero_testbed.sim.run_until(accepted, limit=RUN_LIMIT)
    return {
        "tb": zero_testbed, "sim": zero_testbed.sim,
        "devs": (devA, devB), "pds": (pdA, pdB),
        "cqs": (cqA, cqB), "qps": (qpA, accepted.value),
    }


def _poll(env, side, timeout=5000 * MS):
    fut = env["cqs"][side].poll_wait(timeout_ns=timeout)
    env["sim"].run_until(fut, limit=RUN_LIMIT)
    return fut.value


class TestConnection:
    def test_establishment(self, rc):
        assert rc["qps"][0].state == "RTS"
        assert rc["qps"][1].state == "RTS"

    def test_connect_to_missing_listener_never_ready(self, zero_testbed, zero_devices):
        devA, _ = zero_devices
        pd = devA.alloc_pd()
        qp = devA.rc_connect((1, 9999), pd, devA.create_cq())
        zero_testbed.sim.run(until=5 * SEC)
        assert not qp.ready.done or qp.ready.value is None

    def test_multiple_connections_same_listener(self, zero_testbed, zero_devices):
        devA, devB = zero_devices
        pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
        devB.rc_listen(4791, pdB, devB.create_cq)
        qps = [devA.rc_connect((1, 4791), pdA, devA.create_cq()) for _ in range(3)]
        for qp in qps:
            zero_testbed.sim.run_until(qp.ready, limit=RUN_LIMIT)
            assert qp.state == "RTS"


class TestSendRecv:
    def test_in_order_delivery(self, rc):
        devA, devB = rc["devs"]
        dst = devB.reg_mr(1024, Access.local_only(), rc["pds"][1])
        for _ in range(3):
            rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        for i in range(3):
            src = devA.reg_mr(
                bytearray(f"msg-{i}".encode()), Access.local_only(), rc["pds"][0]
            )
            rc["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], signaled=False,
            ))
        lens = []
        for i in range(3):
            wcs = _poll(rc, 1)
            assert wcs[0].ok
            lens.append(wcs[0].byte_len)
            # The last-arrived message overwrote dst each time (single
            # buffer reused): in-order semantics give deterministic final
            # content.
        assert bytes(dst.view(0, 5)) == b"msg-2"

    def test_multi_segment_send(self, rc):
        devA, devB = rc["devs"]
        size = 50_000  # > MULPDU: many DDP segments over MPA
        payload = bytes((i * 11) & 0xFF for i in range(size))
        src = devA.reg_mr(bytearray(payload), Access.local_only(), rc["pds"][0])
        dst = devB.reg_mr(size, Access.local_only(), rc["pds"][1])
        rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))
        wcs = _poll(rc, 1)
        assert wcs[0].ok and wcs[0].byte_len == size
        assert bytes(dst.view(0, size)) == payload

    def test_no_posted_receive_is_fatal_on_rc(self, rc):
        """The §IV.B item 2 relaxation is UD-only: on RC an unmatched
        untagged arrival errors the stream."""
        devA, _ = rc["devs"]
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"
        # The terminate propagates back and errors the initiator too.
        assert rc["qps"][0].state == "ERROR"

    def test_post_on_errored_qp_rejected(self, rc):
        devA, _ = rc["devs"]
        rc["qps"][0]._enter_error("test")
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        with pytest.raises(QpError):
            rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))

    def test_flush_on_error_completes_recvs(self, rc):
        devB = rc["devs"][1]
        dst = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        rc["qps"][1]._enter_error("test")
        wcs = rc["cqs"][1].poll()
        assert wcs and wcs[0].status is WcStatus.FLUSHED

    def test_dest_address_rejected_on_rc(self, rc):
        devA, _ = rc["devs"]
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        with pytest.raises(QpError):
            rc["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], dest=(1, 1),
            ))


class TestRdmaWrite:
    def test_silent_placement(self, rc):
        devA, devB = rc["devs"]
        sink = devB.reg_mr(4096, Access.remote_write(), rc["pds"][1])
        payload = b"one-sided" * 100
        src = devA.reg_mr(bytearray(payload), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=128, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 100 * MS)
        assert bytes(sink.view(128, len(payload))) == payload
        # Truly silent: no completion at the target.
        assert rc["cqs"][1].poll() == []

    def test_write_then_notify_send(self, rc):
        """Fig. 3 top: RC Write visibility via a follow-up send."""
        devA, devB = rc["devs"]
        sink = devB.reg_mr(1024, Access.remote_write(), rc["pds"][1])
        src = devA.reg_mr(bytearray(b"VALID"), Access.local_only(), rc["pds"][0])
        rc["qps"][1].post_recv(RecvWR(sges=[]))
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[], signaled=False))
        wcs = _poll(rc, 1)
        assert wcs[0].ok
        # In-order RC guarantees the write landed before the send.
        assert bytes(sink.view(0, 5)) == b"VALID"

    def test_write_protection_error_terminates(self, rc):
        devA, devB = rc["devs"]
        sink = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"
        assert rc["qps"][1].rx.remote_access_errors == 1

    def test_memory_flag_watch_detects_completion(self, rc):
        """The §IV.B.3 'flagged bit in memory that is polled upon'."""
        devA, devB = rc["devs"]
        sink = devB.reg_mr(1000, Access.remote_write(), rc["pds"][1])
        fired = []
        sink.add_write_watch(999, 1, lambda off, ln: fired.append(rc["sim"].now))
        src = devA.reg_mr(bytearray(1000), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 100 * MS)
        assert len(fired) == 1


class TestRdmaRead:
    def test_basic_read(self, rc):
        devA, devB = rc["devs"]
        data = b"read-me" * 64
        region = devB.reg_mr(bytearray(data), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(len(data), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and wcs[0].opcode is WrOpcode.RDMA_READ
        assert bytes(sink.view()) == data

    def test_read_at_offset(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(bytearray(b"0123456789"), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(4, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=3,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and bytes(sink.view()) == b"3456"

    def test_large_read_multi_segment(self, rc):
        devA, devB = rc["devs"]
        size = 40_000
        data = bytes((7 * i) & 0xFF for i in range(size))
        region = devB.reg_mr(bytearray(data), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(size, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and bytes(sink.view()) == data

    def test_read_without_remote_read_right_terminates(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        sink = devA.reg_mr(64, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"

    def test_read_sink_needs_local_write(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(64, Access.remote_read(), rc["pds"][1])
        # A read-only sink is rejected locally before any wire traffic.
        ro = devA.registry.register(bytearray(64), Access.LOCAL_READ, rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(ro)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].status is WcStatus.LOCAL_PROTECTION_ERROR


@pytest.fixture(params=["tcp", "sctp"])
def rc_any(request, zero_testbed, zero_devices):
    """An RC pair over each lower-layer protocol, plus the QPs the
    listener handed to its ``on_qp`` callback."""
    devA, devB = zero_devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    handed = []
    devB.rc_listen(4791, pdB, lambda: cqB, on_qp=handed.append,
                   transport=request.param)
    qpA = devA.rc_connect((1, 4791), pdA, cqA, transport=request.param)
    zero_testbed.sim.run_until(qpA.ready, limit=RUN_LIMIT)
    zero_testbed.sim.run(until=zero_testbed.sim.now + 100 * MS)
    return {
        "transport": request.param, "sim": zero_testbed.sim,
        "devs": (devA, devB), "pds": (pdA, pdB), "cqs": (cqA, cqB),
        "qps": (qpA, handed[0] if handed else None), "handed": handed,
    }


def _llp_closed(qp):
    if hasattr(qp, "assoc"):
        return qp.assoc.state == "CLOSED"
    return qp.mpa.sock.conn.state in ("TIME_WAIT", "CLOSED")


class TestBothTransports:
    def test_listener_hands_ready_qp_to_on_qp(self, rc_any):
        assert len(rc_any["handed"]) == 1
        qp = rc_any["handed"][0]
        assert qp.state == "RTS" and qp.ready.value is qp
        assert hasattr(qp, "assoc") == (rc_any["transport"] == "sctp")

    def test_close_flushes_recvs_and_releases_llp(self, rc_any):
        devB = rc_any["devs"][1]
        qpA, qpB = rc_any["qps"]
        wr_ids = []
        for _ in range(2):
            wr = RecvWR(sges=[Sge(devB.reg_mr(64, Access.local_only(), rc_any["pds"][1]))])
            qpB.post_recv(wr)
            wr_ids.append(wr.wr_id)  # numbered by the device at post
        qpB.close()
        wcs = rc_any["cqs"][1].poll(max_entries=8)  # flushed synchronously
        assert [wc.wr_id for wc in wcs] == wr_ids
        assert all(wc.status is WcStatus.FLUSHED for wc in wcs)
        assert qpB.state == "ERROR" and qpB.terminate_reason is None
        qpA.close()
        qpB.close()  # idempotent
        rc_any["sim"].run(until=rc_any["sim"].now + 5 * SEC)
        assert _llp_closed(qpA) and _llp_closed(qpB)


class TestErrorCompletesEveryReceive:
    """§IV.B item 2 on the harness's rc_sendrecv pair: a stream error
    errors both QPs and completes every receive WR they accepted."""

    def test_tcp_reset_errors_both_qps_and_flushes(self):
        pair = VerbsEndpointPair.build("rc_sendrecv")
        q0, q1 = pair.qps
        q1.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[1], 0, 100)], wr_id=7))
        q0.mpa.sock.abort()
        pair.sim.run(until=pair.sim.now + SEC)
        assert (q0.state, q1.state) == ("ERROR", "ERROR")
        assert (q0.mpa.state, q1.mpa.state) == ("FAILED", "FAILED")
        assert [(wc.wr_id, wc.status) for wc in pair.cqs[1].poll(4)] == [
            (7, WcStatus.FLUSHED)
        ]

    def test_overrun_receive_completes_before_the_flush(self):
        pair = VerbsEndpointPair.build("rc_sendrecv")
        q1 = pair.qps[1]
        q1.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[1], 0, 100)], wr_id=111))
        q1.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[1], 0, 4000)], wr_id=222))
        pair._post_message(0, 20_000)
        pair.sim.run(until=pair.sim.now + SEC)
        assert q1.state == "ERROR"
        assert q1.terminate_reason == "send overruns posted receive"
        assert [(wc.wr_id, wc.status) for wc in pair.cqs[1].poll(4)] == [
            (111, WcStatus.LOCAL_LENGTH_ERROR), (222, WcStatus.FLUSHED),
        ]

    def test_error_mid_message_flushes_the_receive_being_placed(self):
        pair = VerbsEndpointPair.build("rc_sendrecv")
        q1 = pair.qps[1]
        for wr_id in (1, 2):
            q1.post_recv(RecvWR(sges=[Sge(pair.recv_mrs[1], 0, 20_000)], wr_id=wr_id))
        pair._post_message(0, 20_000)
        sim = pair.sim
        while q1.rx._rc_current is None:
            sim.run(until=sim.now + 1000)
        q1.mpa.sock.abort()
        sim.run(until=sim.now + SEC)
        assert [(wc.wr_id, wc.status) for wc in pair.cqs[1].poll(4)] == [
            (1, WcStatus.FLUSHED), (2, WcStatus.FLUSHED),
        ]
