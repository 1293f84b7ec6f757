"""Completion queue and device/verbs-object tests."""

import pytest

from repro.core.verbs.cq import CompletionQueue, CqError
from repro.core.verbs.device import DeviceError, RnicDevice
from repro.core.verbs.wr import WcStatus, WorkCompletion, WrOpcode
from repro.memory.region import Access
from repro.simnet.engine import MS, Simulator


def _wc(i=0):
    return WorkCompletion(wr_id=i, opcode=WrOpcode.SEND, status=WcStatus.SUCCESS)


class TestCompletionQueue:
    def _cq(self, depth=16):
        sim = Simulator()
        return sim, CompletionQueue(sim, device=None, depth=depth)

    def test_fifo_poll(self):
        sim, cq = self._cq()
        cq.push(_wc(1))
        cq.push(_wc(2))
        assert [w.wr_id for w in cq.poll(10)] == [1, 2]
        assert cq.poll() == []

    def test_poll_respects_max_entries(self):
        sim, cq = self._cq()
        for i in range(5):
            cq.push(_wc(i))
        assert len(cq.poll(2)) == 2
        assert len(cq) == 3

    def test_poll_wait_resolves_on_push(self):
        sim, cq = self._cq()
        fut = cq.poll_wait(timeout_ns=100 * MS)
        sim.schedule(5 * MS, cq.push, _wc(9))
        sim.run()
        assert fut.value[0].wr_id == 9

    def test_poll_wait_timeout_returns_empty(self):
        """The §IV.B.1 loss-detection contract."""
        sim, cq = self._cq()
        fut = cq.poll_wait(timeout_ns=10 * MS)
        sim.run()
        assert fut.done and fut.value == []
        assert sim.now == 10 * MS

    def test_poll_wait_immediate_when_queued(self):
        sim, cq = self._cq()
        cq.push(_wc(3))
        fut = cq.poll_wait(timeout_ns=10 * MS)
        assert fut.done and fut.value[0].wr_id == 3

    def test_waiters_fifo(self):
        sim, cq = self._cq()
        f1 = cq.poll_wait(timeout_ns=None)
        f2 = cq.poll_wait(timeout_ns=None)
        cq.push(_wc(1))
        cq.push(_wc(2))
        sim.run()
        assert f1.value[0].wr_id == 1
        assert f2.value[0].wr_id == 2

    def test_overflow_drops_and_counts(self):
        sim, cq = self._cq(depth=2)
        for i in range(4):
            cq.push(_wc(i))
        assert len(cq) == 2
        assert cq.overflows == 2

    def test_depth_validation(self):
        sim = Simulator()
        with pytest.raises(CqError):
            CompletionQueue(sim, device=None, depth=0)

    def test_completions_total(self):
        sim, cq = self._cq()
        for i in range(3):
            cq.push(_wc(i))
        assert cq.completions_total == 3


class TestDevice:
    def test_pd_allocation_distinct(self, zero_devices):
        dev = zero_devices[0]
        assert dev.alloc_pd() != dev.alloc_pd()

    def test_reg_mr_charges_cpu(self, devices):
        dev = devices[0]
        before = dev.host.cpu.busy_ns
        dev.reg_mr(65536, Access.local_only(), 1)
        costs = dev.host.costs
        expected = costs.reg_mr_fixed_ns + costs.reg_mr_per_page_ns * 16
        assert dev.host.cpu.busy_ns - before == expected

    def test_dereg_mr(self, zero_devices):
        dev = zero_devices[0]
        mr = dev.reg_mr(64)
        dev.dereg_mr(mr)
        assert mr.invalidated

    def test_mulpdu_validation(self, zero_stacks):
        with pytest.raises(DeviceError):
            RnicDevice(zero_stacks[0], rc_mulpdu=64)

    def test_ud_qp_ready_immediately_no_wire_traffic(self, zero_devices, zero_testbed):
        """§IV.B item 6: no operating-condition exchange at QP creation."""
        dev = zero_devices[0]
        qp = dev.create_ud_qp(dev.alloc_pd(), dev.create_cq())
        assert qp.ready.done and qp.state == "RTS"
        zero_testbed.sim.run()
        assert zero_testbed.hosts[0].port.tx_frames == 0

    def test_ud_qp_port_assignment(self, zero_devices):
        dev = zero_devices[0]
        qp = dev.create_ud_qp(dev.alloc_pd(), dev.create_cq(), port=7777)
        assert qp.address == (0, 7777)
