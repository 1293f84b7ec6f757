"""Registered memory regions and access rights.

iWARP's tagged model places data directly into application memory that
was previously *registered* (pinned and given a steering tag).  The
placement rules — "the requesting machine enforces the requirement that
the requested memory location must be registered with the device as a
valid memory region" (§II) — are security-critical, so this module
implements them for real: every remote access is checked against the
region's bounds and rights before a byte moves.

Regions are backed by ``bytearray`` and accessed through ``memoryview``
slices, keeping the zero-copy *semantics* of the hardware design: data
written by the stack is immediately visible to the application holding
the buffer, with no intermediate application-level copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag
from typing import Union


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

    def __init__(self, stag: int, buffer: bytearray, access: Access, pd_handle: int):
        if not isinstance(buffer, bytearray):
            raise TypeError("regions must be backed by a bytearray")
        self.stag = stag
        self.buffer = buffer
        self.access = access
        self.access_bits = int(access)
        self.pd_handle = pd_handle
        self.invalidated = False
        self._watches: list = []

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def pages(self) -> int:
        """Pinned pages this registration holds (for memory accounting)."""
        return -(-len(self.buffer) // self.PAGE)

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
        if offset < 0 or length < 0 or offset + length > len(self.buffer):
            raise MemoryAccessError(
                f"access [{offset}, {offset + length}) outside region of "
                f"{len(self.buffer)} bytes (stag {self.stag:#x})"
            )

    def write(self, offset: int, data: Union[bytes, memoryview], remote: bool = False) -> None:
        needed = REMOTE_WRITE_BIT if remote else LOCAL_WRITE_BIT
        end = offset + len(data)
        if (self.invalidated or not self.access_bits & needed
                or offset < 0 or end > len(self.buffer)):
            self._check(offset, len(data), needed)
        self.buffer[offset:end] = data
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
                or offset < 0 or length < 0 or offset + length > len(self.buffer)):
            self._check(offset, length, needed)
        return memoryview(self.buffer)[offset : offset + length]

    def view(self, offset: int = 0, length: int = -1) -> memoryview:
        """Unchecked local view (the owning application's own pointer)."""
        if length < 0:
            length = len(self.buffer) - offset
        return memoryview(self.buffer)[offset : offset + length]

    def key(self, offset: int = 0, length: int = -1) -> RegionKey:
        """Advertisable (stag, offset, length) for this region."""
        if length < 0:
            length = len(self.buffer) - offset
        if offset < 0 or offset + length > len(self.buffer):
            raise MemoryAccessError("advertised window outside region")
        return RegionKey(self.stag, offset, length)

    def invalidate(self) -> None:
        """Revoke the steering tag (deregistration)."""
        self.invalidated = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MR stag={self.stag:#x} len={len(self.buffer)} {self.access!r}>"
