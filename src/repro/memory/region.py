"""Registered memory regions and access rights.

iWARP's tagged model places data directly into application memory that
was previously *registered* (pinned and given a steering tag).  The
placement rules — "the requesting machine enforces the requirement that
the requested memory location must be registered with the device as a
valid memory region" (§II) — are security-critical, so this module
implements them for real: every remote access is checked against the
region's bounds and rights before a byte moves.

Regions are accessed through ``memoryview`` slices, keeping the
zero-copy *semantics* of the hardware design: data written by the stack
is immediately visible to the application holding the buffer, with no
intermediate application-level copy.  A region registered with a
caller's ``bytearray`` keeps that buffer.  A region registered by size
is backed on first touch: the first :meth:`~MemoryRegion.write`,
:meth:`~MemoryRegion.read` or :meth:`~MemoryRegion.view` that passes the
region's checks allocates its zero-filled backing, and then only the
pages a run touches cost memory:

* at or above :data:`MAPPED_MIN_BYTES`, the backing is an anonymous
  ``MAP_PRIVATE`` mapping, so the kernel supplies demand-zero pages one
  at a time as they are written (a read of an untouched page maps the
  shared zero page).  Python's default ``MAP_SHARED`` would make each
  touched page shared memory, backed by a real page even on a read;
* below it, the backing is a zero-filled ``bytearray`` of the whole
  region.

Either way the region's bytes, length, pinned pages and registration
cost are the same; only the host's resident memory differs.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from enum import IntFlag
from typing import Optional, Union


class Access(IntFlag):
    """Memory-region access rights (verbs-style)."""

    LOCAL_READ = 0x1
    LOCAL_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_WRITE = 0x8

    @classmethod
    def local_only(cls) -> "Access":
        return cls.LOCAL_READ | cls.LOCAL_WRITE

    @classmethod
    def remote_write(cls) -> "Access":
        return cls.local_only() | cls.REMOTE_WRITE

    @classmethod
    def remote_read(cls) -> "Access":
        return cls.local_only() | cls.REMOTE_READ

    @classmethod
    def full(cls) -> "Access":
        return cls.local_only() | cls.REMOTE_READ | cls.REMOTE_WRITE


#: The rights as plain ints, for per-message checks against
#: :attr:`MemoryRegion.access_bits`: ``&`` on an :class:`Access` builds
#: a new flag object on every call.
LOCAL_READ_BIT = int(Access.LOCAL_READ)
LOCAL_WRITE_BIT = int(Access.LOCAL_WRITE)
REMOTE_READ_BIT = int(Access.REMOTE_READ)
REMOTE_WRITE_BIT = int(Access.REMOTE_WRITE)

#: Regions registered by size at or above this many bytes are backed by
#: an anonymous mapping, smaller ones by a ``bytearray`` (module
#: docstring).  Each mapping is a kernel memory area, and a process may
#: hold only so many (65,530 by default on Linux).  Receive-pool slots
#: (64 KiB by default, 4 KiB in the SIP workload) stay below the
#: constant: a SIP call registers 64 of them, so at 10,000 calls they
#: would otherwise be hundreds of thousands of mappings.  The bench
#: harness's 1 MiB buffers and the socket interface's 4 MiB
#: Write-Record rings are mapped.
MAPPED_MIN_BYTES = 256 * 1024

_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _zero_backing(size: int) -> Union[bytearray, mmap.mmap]:
    """A region's zero-filled backing, allocated on its first touch."""
    if size >= MAPPED_MIN_BYTES:
        return mmap.mmap(-1, size, **_PRIVATE)
    return bytearray(size)


class MemoryAccessError(Exception):
    """Out-of-bounds or rights-violating access to a registered region.

    Maps to the DDP/RDMAP protection errors that would tear down an RC
    stream (or complete a WR in error for datagrams)."""


@dataclass(frozen=True)
class RegionKey:
    """The (stag, offset, length) triple a remote peer advertises."""

    stag: int
    offset: int
    length: int


class MemoryRegion:
    """A registered buffer with a steering tag.

    ``offset`` in all methods is the *tagged offset* (TO): a byte offset
    from the start of the region, which is how DDP addresses tagged
    buffers.
    """

    PAGE = 4096

    def __init__(self, stag: int, buffer: Union[bytearray, int], access: Access,
                 pd_handle: int):
        if isinstance(buffer, bytearray):
            self._buffer: Optional[Union[bytearray, mmap.mmap]] = buffer
            self.size = len(buffer)
        elif isinstance(buffer, int):
            # Registered by size: backed on first touch (module docstring).
            self._buffer = None
            self.size = buffer
        else:
            raise TypeError("a region takes a bytearray or a size in bytes")
        self.stag = stag
        self.access = access
        self.access_bits = int(access)
        self.pd_handle = pd_handle
        self.invalidated = False
        self._watches: list = []

    def __len__(self) -> int:
        return self.size

    @property
    def pages(self) -> int:
        """Pinned pages this registration holds (for memory accounting)."""
        return -(-self.size // self.PAGE)

    # -- checked access ----------------------------------------------------

    def _check(self, offset: int, length: int, needed: int) -> None:
        """Raise unless the region is live, holds the right ``needed`` (one
        of the ``*_BIT`` constants) and contains the extent.  The per-message
        :meth:`read` and :meth:`write` test the same conditions inline and
        call this only to raise the precise error."""
        if self.invalidated:
            raise MemoryAccessError(f"stag {self.stag:#x} has been invalidated")
        if not (self.access_bits & needed):
            raise MemoryAccessError(
                f"stag {self.stag:#x} lacks {Access(needed).name} (has {self.access!r})"
            )
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryAccessError(
                f"access [{offset}, {offset + length}) outside region of "
                f"{self.size} bytes (stag {self.stag:#x})"
            )

    def write(self, offset: int, data: Union[bytes, memoryview], remote: bool = False) -> None:
        needed = REMOTE_WRITE_BIT if remote else LOCAL_WRITE_BIT
        end = offset + len(data)
        if (self.invalidated or not self.access_bits & needed
                or offset < 0 or end > self.size):
            self._check(offset, len(data), needed)
        # First touch backs the region; the test is inline, so a write
        # to a backed region costs no call.
        buf = self._buffer
        if buf is None:
            buf = self._buffer = _zero_backing(self.size)
        buf[offset:end] = data
        if self._watches:
            for w_off, w_end, fn in list(self._watches):
                if offset < w_end and end > w_off:
                    fn(offset, len(data))

    def add_write_watch(self, offset: int, length: int, fn) -> tuple:
        """Invoke ``fn(write_offset, write_len)`` after any write touching
        ``[offset, offset+length)`` — how an application polls a flag byte
        for RDMA Write completion ("a flagged bit in memory that is polled
        upon", §IV.B.3).  Returns a handle for :meth:`remove_write_watch`."""
        handle = (offset, offset + length, fn)
        self._watches.append(handle)
        return handle

    def remove_write_watch(self, handle: tuple) -> None:
        if handle in self._watches:
            self._watches.remove(handle)

    def read(self, offset: int, length: int, remote: bool = False) -> memoryview:
        needed = REMOTE_READ_BIT if remote else LOCAL_READ_BIT
        if (self.invalidated or not self.access_bits & needed
                or offset < 0 or length < 0 or offset + length > self.size):
            self._check(offset, length, needed)
        buf = self._buffer
        if buf is None:
            buf = self._buffer = _zero_backing(self.size)
        return memoryview(buf)[offset : offset + length]

    def view(self, offset: int = 0, length: int = -1) -> memoryview:
        """Unchecked local view (the owning application's own pointer)."""
        if length < 0:
            length = self.size - offset
        buf = self._buffer
        if buf is None:
            buf = self._buffer = _zero_backing(self.size)
        return memoryview(buf)[offset : offset + length]

    def key(self, offset: int = 0, length: int = -1) -> RegionKey:
        """Advertisable (stag, offset, length) for this region."""
        if length < 0:
            length = self.size - offset
        if offset < 0 or offset + length > self.size:
            raise MemoryAccessError("advertised window outside region")
        return RegionKey(self.stag, offset, length)

    def invalidate(self) -> None:
        """Revoke the steering tag (deregistration)."""
        self.invalidated = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MR stag={self.stag:#x} len={self.size} {self.access!r}>"
