"""DDP message segmentation and untagged reassembly.

Transmit side: one RDMAP message becomes a train of DDP segments no
larger than the path's maximum (MULPDU on RC; the UDP datagram ceiling
on UD — §IV.B.4's "it is preferable to package each message ... as a
complete unit that spans only one datagram", with stack-level
segmentation above 64 KB).

Receive side: :class:`UntaggedReassembly` tracks one in-flight UD
untagged message of several segments — which posted receive it matched,
which byte ranges landed, in any order and any subset — and says when
it is deliverable.  Nothing else needs one: RC segments arrive in order
behind the MSN check, so the RDMAP receive engine scatters each straight
into its receive WR, and a UD message that arrives whole in one segment
is placed and completed at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...memory.sge import scatter
from ...memory.validity import ValidityMap


@dataclass
class SegmentSpec:
    """Extent of one DDP segment within its message."""

    offset: int
    length: int
    last: bool


def plan_segments(total: int, max_payload: int) -> List[SegmentSpec]:
    """Split a ``total``-byte message into segment extents.

    A zero-byte message still produces one (empty, last) segment — DDP
    must deliver zero-length sends.
    """
    if max_payload <= 0:
        raise ValueError(f"max segment payload must be positive, got {max_payload}")
    if total < 0:
        raise ValueError(f"negative message size: {total}")
    if total == 0:
        return [SegmentSpec(0, 0, True)]
    out: List[SegmentSpec] = []
    offset = 0
    while offset < total:
        length = total - offset
        if length >= max_payload:
            length = max_payload
        offset += length
        out.append(SegmentSpec(offset - length, length, offset == total))
    return out


class ReassemblyError(Exception):
    """Incoming segment is inconsistent with the message being rebuilt."""


class UntaggedReassembly:
    """One multi-segment UD untagged message being scattered into a
    posted receive.

    ``wr`` is any object with ``sges`` and ``capacity`` (a verbs RecvWR
    in practice; typed loosely to keep DDP below the verbs layer).
    """

    def __init__(self, wr, total: int):
        capacity = wr.capacity
        if total > capacity:
            raise ReassemblyError(
                f"message of {total} bytes exceeds posted receive capacity "
                f"{capacity} (DDP buffer-too-small)"
            )
        self.wr = wr
        self.capacity = capacity
        self.total = total
        self.validity = ValidityMap(total)
        self.saw_last = False

    def place(self, mo: int, payload: bytes, last: bool) -> None:
        """Scatter one segment's payload at message offset ``mo``."""
        if mo + len(payload) > self.total:
            raise ReassemblyError(
                f"segment [{mo}, {mo + len(payload)}) overruns message of {self.total}"
            )
        if payload:
            scatter(self.wr.sges, mo, payload)
            self.validity.add(mo, len(payload))
        if last:
            self.saw_last = True

    @property
    def complete(self) -> bool:
        return self.saw_last and self.validity.complete
