"""Tests for registered memory, STag registry, validity maps, accounting."""

import mmap
import os
import tracemalloc

import pytest

from repro.bench.claims import broken, load_results
from repro.core.verbs.device import RnicDevice
from repro.memory.accounting import FootprintModel, MemoryMeter
from repro.memory.region import Access, MemoryAccessError, MemoryRegion
from repro.memory.registry import StagRegistry
from repro.memory.validity import ValidityMap
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

MIB = 1 << 20


def resident_bytes():
    """This process's resident memory, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


def peak_allocated(fn):
    """Run ``fn``; return its result and the peak bytes it held allocated."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAccess:
    def test_composite_rights(self):
        assert Access.remote_write() & Access.REMOTE_WRITE
        assert Access.remote_write() & Access.LOCAL_READ
        assert not (Access.local_only() & Access.REMOTE_WRITE)
        assert Access.full() & Access.REMOTE_READ


class TestMemoryRegion:
    def _mr(self, size=100, access=Access.full()):
        return MemoryRegion(0x10, bytearray(size), access, pd_handle=1)

    def test_local_write_and_read(self):
        mr = self._mr()
        mr.write(10, b"abc")
        assert bytes(mr.read(10, 3)) == b"abc"

    def test_remote_write_requires_right(self):
        mr = self._mr(access=Access.local_only())
        with pytest.raises(MemoryAccessError):
            mr.write(0, b"x", remote=True)
        mr.write(0, b"x")  # local is fine

    def test_remote_read_requires_right(self):
        mr = self._mr(access=Access.remote_write())
        with pytest.raises(MemoryAccessError):
            mr.read(0, 1, remote=True)

    def test_rights_error_names_missing_and_held_rights(self):
        mr = self._mr(access=Access.local_only())
        assert mr.access_bits == int(Access.local_only())
        with pytest.raises(MemoryAccessError) as err:
            mr.write(0, b"x", remote=True)
        assert str(err.value) == (
            f"stag 0x10 lacks REMOTE_WRITE (has {Access.local_only()!r})"
        )
        wo = self._mr(access=Access.LOCAL_WRITE)
        with pytest.raises(MemoryAccessError, match="lacks LOCAL_READ"):
            wo.read(0, 1)

    def test_bounds_enforced(self):
        mr = self._mr(size=10)
        with pytest.raises(MemoryAccessError):
            mr.write(8, b"abc")
        with pytest.raises(MemoryAccessError):
            mr.read(-1, 2)

    def test_invalidated_region_rejects_access(self):
        mr = self._mr()
        mr.invalidate()
        with pytest.raises(MemoryAccessError):
            mr.read(0, 1)

    def test_view_is_zero_copy(self):
        mr = self._mr()
        view = mr.view(5, 10)
        mr.write(5, b"hello")
        assert bytes(view[:5]) == b"hello"  # sees the write, no copy

    def test_key_advertisement(self):
        mr = self._mr(size=100)
        key = mr.key(10, 50)
        assert (key.stag, key.offset, key.length) == (0x10, 10, 50)
        with pytest.raises(MemoryAccessError):
            mr.key(90, 20)

    def test_pages_rounds_up(self):
        assert MemoryRegion(1, bytearray(1), Access.full(), 0).pages == 1
        assert MemoryRegion(1, bytearray(4096), Access.full(), 0).pages == 1
        assert MemoryRegion(1, bytearray(4097), Access.full(), 0).pages == 2

    def test_requires_bytearray(self):
        with pytest.raises(TypeError):
            MemoryRegion(1, b"immutable", Access.full(), 0)
        with pytest.raises(TypeError):
            StagRegistry().register(b"immutable")

    def test_write_watch_fires_on_overlap(self):
        mr = self._mr(size=100)
        hits = []
        handle = mr.add_write_watch(50, 1, lambda off, ln: hits.append((off, ln)))
        mr.write(0, b"x" * 10)       # no overlap
        mr.write(45, b"y" * 10)      # covers byte 50
        assert hits == [(45, 10)]
        mr.remove_write_watch(handle)
        mr.write(50, b"z")
        assert len(hits) == 1


class TestFirstTouch:
    """A region registered by size is backed by its first access."""

    def test_registering_by_size_allocates_no_backing(self):
        reg = StagRegistry()
        mr, peak = peak_allocated(lambda: reg.register(64 * MIB, Access.full()))
        assert len(mr) == 64 * MIB
        assert peak < MIB
        assert mr._buffer is None  # tracemalloc cannot see a mapping

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_large_region_costs_only_the_pages_touched(self):
        mr = StagRegistry().register(64 * MIB, Access.full())
        before = resident_bytes()
        mr.write(64 * MIB - 1, b"x")
        assert resident_bytes() - before < MIB
        assert bytes(mr.read(64 * MIB - 2, 2)) == b"\0x"

    def test_untouched_region_reads_as_zeros_and_first_write_lands(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.full())
        assert bytes(mr.read(0, 64)) == bytes(64)
        assert bytes(reg.register(64).view()) == bytes(64)
        fresh = reg.register(64, Access.remote_write())
        fresh.write(60, b"tail", remote=True)
        assert bytes(fresh.view()) == bytes(60) + b"tail"

    @pytest.mark.parametrize("case", ["bounds", "rights", "invalidated"])
    def test_rejected_write_allocates_nothing(self, case):
        reg = StagRegistry()
        access = Access.local_only() if case == "rights" else Access.remote_write()
        mr = reg.register(64 * MIB, access)
        if case == "invalidated":
            reg.deregister(mr)
        offset = 64 * MIB - 2 if case == "bounds" else 0
        assert mr._buffer is None

        def bad_tagged_write():
            with pytest.raises(MemoryAccessError):
                mr.write(offset, b"peer", remote=True)

        _, peak = peak_allocated(bad_tagged_write)
        assert peak < MIB
        assert mr._buffer is None

    def test_pages_and_registration_cost_match_a_backed_region(self):
        # Registration is charged from the declared pages, backed or not:
        # 1 MiB is 256 pages, as when every region was zero-filled.
        dev = RnicDevice(install_stacks(build_testbed(2))[0])
        costs, cpu = dev.host.costs, dev.host.cpu
        charged = []
        for buffer in (MIB, bytearray(MIB)):
            before = cpu.busy_ns
            mr = dev.reg_mr(buffer)
            charged.append((mr.pages, cpu.busy_ns - before))
        cost = int(costs.reg_mr_fixed_ns + costs.reg_mr_per_page_ns * 256)
        assert charged == [(256, cost), (256, cost)]
        assert StagRegistry().register(4097).pages == 2


class TestStagRegistry:
    def test_register_and_resolve(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.remote_write(), pd_handle=7)
        got = reg.resolve(mr.stag, 0, 64, Access.REMOTE_WRITE, pd_handle=7)
        assert got is mr

    def test_unknown_stag(self):
        reg = StagRegistry()
        with pytest.raises(MemoryAccessError):
            reg.resolve(0xDEAD, 0, 1, Access.REMOTE_WRITE)

    def test_pd_mismatch_rejected(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.remote_write(), pd_handle=1)
        with pytest.raises(MemoryAccessError):
            reg.resolve(mr.stag, 0, 1, Access.REMOTE_WRITE, pd_handle=2)

    def test_rights_checked_at_resolve(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.remote_read(), pd_handle=1)
        with pytest.raises(MemoryAccessError):
            reg.resolve(mr.stag, 0, 1, Access.REMOTE_WRITE, pd_handle=1)

    def test_bounds_checked_at_resolve(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.remote_write())
        with pytest.raises(MemoryAccessError):
            reg.resolve(mr.stag, 60, 10, Access.REMOTE_WRITE)

    def test_deregistered_stag_never_aliases(self):
        reg = StagRegistry()
        mr = reg.register(64, Access.remote_write())
        old_stag = mr.stag
        reg.deregister(mr)
        mr2 = reg.register(64, Access.remote_write())
        assert mr2.stag != old_stag
        with pytest.raises(MemoryAccessError):
            reg.resolve(old_stag, 0, 1, Access.REMOTE_WRITE)

    def test_double_deregister_rejected(self):
        reg = StagRegistry()
        mr = reg.register(8)
        reg.deregister(mr)
        with pytest.raises(MemoryAccessError):
            reg.deregister(mr)

    def test_pinned_bytes(self):
        reg = StagRegistry()
        reg.register(100)
        reg.register(200)
        assert reg.pinned_bytes() == 300
        assert len(reg) == 2

    def test_register_existing_buffer(self):
        reg = StagRegistry()
        buf = bytearray(b"hello")
        mr = reg.register(buf)
        mr.write(0, b"HELLO")
        assert buf == b"HELLO"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StagRegistry().register(-1)


class TestValidityMap:
    def test_empty(self):
        v = ValidityMap(100)
        assert v.valid_bytes() == 0
        assert not v.complete
        assert v.gaps() == [(0, 100)]
        assert v.fraction_valid() == 0.0

    def test_single_chunk(self):
        v = ValidityMap(100)
        v.add(10, 20)
        assert v.ranges() == [(10, 20)]
        assert v.covered(10, 20)
        assert not v.covered(9, 2)
        assert v.gaps() == [(0, 10), (30, 70)]

    def test_adjacent_chunks_merge(self):
        v = ValidityMap(100)
        v.add(0, 10)
        v.add(10, 10)
        assert v.ranges() == [(0, 20)]

    def test_overlapping_chunks_merge(self):
        v = ValidityMap(100)
        v.add(0, 30)
        v.add(20, 30)
        assert v.ranges() == [(0, 50)]

    def test_out_of_order_completion(self):
        v = ValidityMap(30)
        v.add(20, 10)
        v.add(0, 10)
        assert not v.complete
        v.add(10, 10)
        assert v.complete
        assert v.ranges() == [(0, 30)]

    def test_idempotent_adds(self):
        v = ValidityMap(50)
        v.add(5, 10)
        v.add(5, 10)
        assert v.valid_bytes() == 10

    def test_bounds_validated(self):
        v = ValidityMap(10)
        with pytest.raises(ValueError):
            v.add(5, 10)
        with pytest.raises(ValueError):
            v.add(-1, 2)

    def test_zero_length_ignored(self):
        v = ValidityMap(10)
        v.add(5, 0)
        assert v.valid_bytes() == 0
        assert v.covered(3, 0)

    def test_zero_total_complete(self):
        v = ValidityMap(0)
        assert v.complete
        assert v.fraction_valid() == 1.0

    def test_equality(self):
        a, b = ValidityMap(10), ValidityMap(10)
        a.add(0, 5)
        b.add(0, 5)
        assert a == b
        b.add(6, 2)
        assert a != b

    def test_iteration(self):
        v = ValidityMap(100)
        v.add(0, 10)
        v.add(50, 10)
        assert list(v) == [(0, 10), (50, 10)]

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ValidityMap(-1)


class TestFootprintModel:
    def test_socket_only_prediction_near_paper(self):
        """Claim 19, with the model's value in place of the committed one."""
        results = load_results()
        fig11 = results["fig11_sip_memory"]
        fig11["socket_only_percent"] = FootprintModel().socket_only_improvement_percent()
        assert broken(results, "19") == []

    def test_improvement_grows_with_clients(self):
        """Claim 18 (the 10 000-call point, growth with clients, agreement
        with the live points), with the model's values in place of the
        committed ones."""
        results = load_results()
        model = results["fig11_sip_memory"]["model"]
        for n in model:
            model[n] = FootprintModel().improvement_percent(int(n))
        assert broken(results, "18") == []

    def test_ud_cheaper_per_client(self):
        m = FootprintModel()
        assert m.ud_per_client() < m.rc_per_client()

    def test_totals_affine_in_clients(self):
        m = FootprintModel()
        assert m.rc_total(10) - m.rc_total(9) == m.rc_per_client()
        assert m.ud_total(10) - m.ud_total(0) == 10 * m.ud_per_client()

    def test_negative_clients_rejected(self):
        with pytest.raises(ValueError):
            FootprintModel().rc_total(-1)

    def test_sweep(self):
        m = FootprintModel()
        sweep = m.sweep([10, 100])
        assert set(sweep) == {10, 100}


class TestMemoryMeter:
    def test_alloc_free_roundtrip(self):
        meter = MemoryMeter(FootprintModel())
        base = meter.bytes_now
        meter.alloc("udp_socket")
        meter.alloc("app_call", count=3)
        assert meter.count("app_call") == 3
        meter.free("app_call", count=3)
        meter.free("udp_socket")
        assert meter.bytes_now == base

    def test_high_water_tracks_peak(self):
        meter = MemoryMeter(FootprintModel())
        meter.alloc("tcp_socket", count=10)
        peak = meter.bytes_now
        meter.free("tcp_socket", count=10)
        assert meter.high_water == peak

    def test_overfree_rejected(self):
        meter = MemoryMeter(FootprintModel())
        with pytest.raises(ValueError):
            meter.free("udp_socket")

    def test_unknown_kind_rejected(self):
        meter = MemoryMeter(FootprintModel())
        with pytest.raises(ValueError):
            meter.alloc("flux_capacitor")

    def test_meter_matches_closed_form(self):
        m = FootprintModel()
        meter = MemoryMeter(m)
        n = 42
        meter.alloc("tcp_socket", n)
        meter.alloc("rc_qp", n)
        meter.alloc("app_call", n)
        assert meter.bytes_now == m.rc_total(n)
