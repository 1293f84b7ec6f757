"""Tests for CQ event notification (solicited events) and UD multicast."""

import pytest

from repro.core.verbs import CompletionQueue, QpError, RecvWR, RnicDevice, SendWR, Sge, WcStatus, WorkCompletion, WrOpcode, multicast_address
from repro.memory.region import Access
from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS, SEC, Simulator
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

RUN_LIMIT = 600 * SEC


def _wc(solicited=False):
    return WorkCompletion(
        wr_id=1, opcode=WrOpcode.SEND, status=WcStatus.SUCCESS,
        solicited=solicited,
    )


class TestCqEvents:
    def _cq(self):
        sim = Simulator()
        return sim, CompletionQueue(sim, device=None)

    def test_disarmed_cq_raises_no_events(self):
        sim, cq = self._cq()
        events = []
        cq.on_event = events.append
        cq.push(_wc())
        sim.run()
        assert events == []

    def test_armed_cq_raises_one_event_then_disarms(self):
        sim, cq = self._cq()
        events = []
        cq.on_event = events.append
        cq.req_notify()
        cq.push(_wc())
        cq.push(_wc())
        sim.run()
        assert len(events) == 1
        assert cq.events_raised == 1

    def test_solicited_only_arming_skips_unsolicited(self):
        sim, cq = self._cq()
        events = []
        cq.on_event = events.append
        cq.req_notify(solicited_only=True)
        cq.push(_wc(solicited=False))
        sim.run()
        assert events == []
        cq.push(_wc(solicited=True))
        sim.run()
        assert len(events) == 1

    def test_rearm_after_event(self):
        sim, cq = self._cq()
        events = []
        cq.on_event = lambda c: (events.append(1), c.req_notify())
        cq.req_notify()
        cq.push(_wc())
        sim.run()
        cq.push(_wc())
        sim.run()
        assert len(events) == 2

    def test_event_delivered_via_queue_not_inline(self):
        sim, cq = self._cq()
        order = []
        cq.on_event = lambda c: order.append("event")
        cq.req_notify()
        cq.push(_wc())
        order.append("after-push")
        sim.run()
        assert order == ["after-push", "event"]


class TestSendSolicitedEvent:
    def test_send_se_marks_completion_and_raises_event(self):
        """The §IV.B.3 contrast: send-with-SE is two-sided (needs a posted
        receive) and raises a target event; Write-Record needs neither."""
        tb = build_testbed(costs=zero_cost_model())
        nets = install_stacks(tb)
        devs = [RnicDevice(n) for n in nets]
        pds = [d.alloc_pd() for d in devs]
        cqB = devs[1].create_cq()
        qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
        qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
        events = []
        cqB.on_event = lambda cq: events.append(tb.sim.now)
        cqB.req_notify(solicited_only=True)
        dst = devs[1].reg_mr(64, Access.local_only(), pds[1])
        qpB.post_recv(RecvWR(sges=[Sge(dst)]))
        src = devs[0].reg_mr(bytearray(b"wake up"), Access.local_only(), pds[0])
        qpA.post_send(SendWR(
            opcode=WrOpcode.SEND_SE, sges=[Sge(src)], dest=qpB.address,
        ))
        tb.sim.run(until=100 * MS)
        assert len(events) == 1
        wcs = cqB.poll()
        assert wcs and wcs[0].solicited


class TestMulticast:
    def _world(self, n=4):
        tb = build_testbed(n, costs=zero_cost_model())
        nets = install_stacks(tb)
        devs = [RnicDevice(x) for x in nets]
        return tb, devs

    def test_multicast_reaches_all_group_members(self):
        tb, devs = self._world(4)
        group = 6000
        receivers = []
        for i in (1, 2, 3):
            pd = devs[i].alloc_pd()
            cq = devs[i].create_cq()
            qp = devs[i].create_ud_qp(pd, cq, port=group)
            dst = devs[i].reg_mr(256, Access.local_only(), pd)
            qp.post_recv(RecvWR(sges=[Sge(dst)]))
            receivers.append((cq, dst))
        pd0 = devs[0].alloc_pd()
        sender = devs[0].create_ud_qp(pd0, devs[0].create_cq())
        src = devs[0].reg_mr(bytearray(b"to-the-group"), Access.local_only(), pd0)
        sender.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)],
            dest=multicast_address(group), signaled=False,
        ))
        tb.sim.run(until=100 * MS)
        for cq, dst in receivers:
            wcs = cq.poll()
            assert wcs and wcs[0].ok
            assert bytes(dst.view(0, 12)) == b"to-the-group"
            # Source address is the real sender, not the group.
            assert wcs[0].src[0] == 0

    def test_non_members_do_not_receive(self):
        tb, devs = self._world(3)
        group = 6000
        # Host 1 joins; host 2 binds a different port.
        pd1, pd2 = devs[1].alloc_pd(), devs[2].alloc_pd()
        cq1, cq2 = devs[1].create_cq(), devs[2].create_cq()
        qp1 = devs[1].create_ud_qp(pd1, cq1, port=group)
        qp2 = devs[2].create_ud_qp(pd2, cq2, port=6001)
        for dev, pd, qp in ((devs[1], pd1, qp1), (devs[2], pd2, qp2)):
            dst = dev.reg_mr(64, Access.local_only(), pd)
            qp.post_recv(RecvWR(sges=[Sge(dst)]))
        pd0 = devs[0].alloc_pd()
        sender = devs[0].create_ud_qp(pd0, devs[0].create_cq())
        src = devs[0].reg_mr(bytearray(b"x"), Access.local_only(), pd0)
        sender.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)],
            dest=multicast_address(group), signaled=False,
        ))
        tb.sim.run(until=100 * MS)
        assert cq1.poll()
        assert not cq2.poll()

    def test_sender_does_not_hear_itself(self):
        tb, devs = self._world(2)
        group = 6000
        pd0 = devs[0].alloc_pd()
        cq0 = devs[0].create_cq()
        qp0 = devs[0].create_ud_qp(pd0, cq0, port=group)
        dst = devs[0].reg_mr(64, Access.local_only(), pd0)
        qp0.post_recv(RecvWR(sges=[Sge(dst)]))
        src = devs[0].reg_mr(bytearray(b"echo?"), Access.local_only(), pd0)
        qp0.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)],
            dest=multicast_address(group), signaled=False,
        ))
        tb.sim.run(until=100 * MS)
        assert not cq0.poll()  # the switch does not loop frames back

    def test_multicast_rejected_on_reliable_qp(self):
        tb, devs = self._world(2)
        pd = devs[0].alloc_pd()
        qp = devs[0].create_ud_qp(pd, devs[0].create_cq(), reliable=True)
        src = devs[0].reg_mr(bytearray(b"x"), Access.local_only(), pd)
        qp.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)],
            dest=multicast_address(6000), signaled=False,
        ))
        # The rejection surfaces when the segment reaches the channel.
        with pytest.raises(QpError):
            tb.sim.run(until=100 * MS)

    def test_multicast_fanout_bandwidth(self):
        """Media-fanout sanity: one sender, three group members, every
        member sees every packet."""
        tb, devs = self._world(4)
        group = 5004
        cqs = []
        for i in (1, 2, 3):
            pd = devs[i].alloc_pd()
            cq = devs[i].create_cq()
            qp = devs[i].create_ud_qp(pd, cq, port=group)
            dst = devs[i].reg_mr(2048, Access.local_only(), pd)
            for _ in range(50):
                qp.post_recv(RecvWR(sges=[Sge(dst)]))
            cqs.append(cq)
        pd0 = devs[0].alloc_pd()
        sender = devs[0].create_ud_qp(pd0, devs[0].create_cq())
        src = devs[0].reg_mr(bytearray(1316), Access.local_only(), pd0)
        for _ in range(40):
            sender.post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)],
                dest=multicast_address(group), signaled=False,
            ))
        tb.sim.run(until=500 * MS)
        for cq in cqs:
            assert cq.completions_total == 40
