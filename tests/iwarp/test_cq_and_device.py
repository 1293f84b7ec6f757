"""Completion queue and device/verbs-object tests."""

import pytest

from repro.core.verbs.cq import CompletionQueue, CqError
from repro.core.verbs.device import DeviceError, RnicDevice
from repro.core.verbs.wr import WcStatus, WorkCompletion, WrOpcode
from repro.memory.region import REMOTE_WRITE_BIT, Access
from repro.models.costs import default_cost_model
from repro.simnet.engine import MS, Simulator
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks


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

    @pytest.mark.parametrize("per_page_ns", [350, 350.7])
    def test_reg_mrs_charges_like_reg_mr_calls(self, per_page_ns):
        """One pool charge leaves the CPU where ``count`` single
        registrations would, also with a fractional per-page cost that
        each registration truncates to whole nanoseconds."""
        costs = default_cost_model().with_overrides(reg_mr_per_page_ns=per_page_ns)

        def cpu_after(register):
            dev = RnicDevice(install_stacks(build_testbed(2, costs=costs))[0])
            dev.host.cpu.charge(1_000)  # work already queued ahead of the pool
            register(dev)
            return dev.host.cpu

        single = cpu_after(lambda d: [d.reg_mr(65_537, Access.local_only(), 1) for _ in range(5)])
        pooled = cpu_after(lambda d: d.reg_mrs(5, 65_537, Access.local_only(), 1))
        assert (pooled.busy_ns, pooled.free_at) == (single.busy_ns, single.free_at)
        assert (single.work_items, pooled.work_items) == (6, 2)

    def test_reg_mrs_stags_are_distinct_and_resolvable(self, zero_devices):
        dev = zero_devices[0]
        mrs = dev.reg_mrs(8, 4096, Access.remote_write(), 3)
        assert len({mr.stag for mr in mrs}) == 8
        for mr in mrs:
            assert dev.registry.resolve(mr.stag, 0, 4096, REMOTE_WRITE_BIT, 3) is mr
        items = dev.host.cpu.work_items
        assert dev.reg_mrs(0, 4096) == []
        assert dev.host.cpu.work_items == items

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
