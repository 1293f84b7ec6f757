"""Scatter/gather elements over registered memory.

Lives in the memory package (below both DDP and verbs) so the DDP
reassembly machinery and the verbs work-request types can share it
without an import cycle.  The verbs layer re-exports these names as part
of its public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .region import MemoryRegion


@dataclass(init=False)
class Sge:
    """One scatter/gather element over a registered region; a negative
    ``length`` extends it to the end of the region."""

    mr: MemoryRegion
    offset: int
    length: int

    def __init__(self, mr: MemoryRegion, offset: int = 0, length: int = -1) -> None:
        size = mr.size
        if length < 0:
            length = size - offset
        if offset < 0 or offset + length > size:
            raise ValueError(
                f"SGE [{offset}, {offset + length}) outside region of {size} bytes"
            )
        self.mr = mr
        self.offset = offset
        self.length = length


def sge_total(sges: List[Sge]) -> int:
    total = 0
    for s in sges:
        total += s.length
    return total


def gather(sges: List[Sge]) -> bytes:
    """Materialize a send payload from local registered memory (the
    I/O-vector gather the software stack performs, §V of the paper)."""
    if len(sges) == 1:
        return bytes(sges[0].mr.read(sges[0].offset, sges[0].length))
    return b"".join(bytes(s.mr.read(s.offset, s.length)) for s in sges)


def scatter(sges: List[Sge], offset: int, data: bytes) -> None:
    """Place ``data`` at message offset ``offset`` across the SGE list."""
    remaining = memoryview(data)
    cursor = 0
    for sge in sges:
        if not len(remaining):
            return
        sge_end = cursor + sge.length
        if offset < sge_end:
            local = offset - cursor
            if local < 0:
                local = 0
            take = sge.length - local
            if len(remaining) < take:
                take = len(remaining)
            sge.mr.write(sge.offset + local, remaining[:take])
            remaining = remaining[take:]
            offset += take
        cursor = sge_end
    if len(remaining):
        raise ValueError("scatter overruns the SGE list")
