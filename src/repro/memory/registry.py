"""Steering-tag registry: the device's table of registered memory.

One registry per RNIC device.  STags are allocated with a generation
counter folded in, so a stale tag from a deregistered buffer can never
alias a new registration — the failure mode the iWARP spec's
invalidation rules exist to prevent.
"""

from __future__ import annotations

import itertools
from typing import Dict, Union

from .region import Access, MemoryAccessError, MemoryRegion


class StagRegistry:
    """Allocate, resolve and invalidate steering tags."""

    def __init__(self) -> None:
        self._regions: Dict[int, MemoryRegion] = {}
        self._next = itertools.count(0x1000)
        self.registrations = 0
        self.deregistrations = 0

    def register(
        self,
        buffer: Union[bytearray, int],
        access: Access = Access.local_only(),
        pd_handle: int = 0,
    ) -> MemoryRegion:
        """Register a caller's buffer as given, or ``int`` bytes that are
        zero-filled on first touch (see :class:`MemoryRegion`)."""
        if isinstance(buffer, int) and buffer < 0:
            raise ValueError(f"negative region size: {buffer}")
        stag = next(self._next)
        mr = MemoryRegion(stag, buffer, access, pd_handle)
        self._regions[stag] = mr
        self.registrations += 1
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        if self._regions.pop(mr.stag, None) is None:
            raise MemoryAccessError(f"stag {mr.stag:#x} is not registered")
        mr.invalidate()
        self.deregistrations += 1

    def resolve(
        self,
        stag: int,
        offset: int,
        length: int,
        needed: int,
        pd_handle: int = None,
    ) -> MemoryRegion:
        """Validate a tagged access and return the region.

        Raises :class:`MemoryAccessError` for unknown stags, protection-
        domain mismatches, rights violations, or out-of-bounds extents —
        the checks DDP performs before placing tagged data (§II).
        """
        mr = self._regions.get(stag)
        if mr is None:
            raise MemoryAccessError(f"unknown stag {stag:#x}")
        if pd_handle is not None and mr.pd_handle != pd_handle:
            raise MemoryAccessError(
                f"stag {stag:#x} belongs to PD {mr.pd_handle}, not {pd_handle}"
            )
        mr._check(offset, length, needed)
        return mr

    def __len__(self) -> int:
        return len(self._regions)

    def pinned_bytes(self) -> int:
        """Total bytes currently pinned (for memory accounting)."""
        return sum(len(mr) for mr in self._regions.values())
