"""Validity maps for RDMA Write-Record.

The defining data structure of the paper's contribution: the target
"must log at the target side what data has been written to memory and is
valid" (§IV.B.3), either as individual completion entries per chunk or
as an aggregated *validity map*.  Applications read the map to learn
which byte ranges of a partially-delivered message are safe to consume
(streaming decoders skip the gaps).

Implemented as a sorted list of merged, non-overlapping ``[start, end)``
intervals with O(n) insertion (n = fragments of one message, always
small), O(log n) membership via bisection and an O(1) completeness
test.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Tuple


class ValidityMap:
    """Set of valid byte intervals within a message of ``total`` bytes."""

    def __init__(self, total: int):
        if total < 0:
            raise ValueError(f"negative message size: {total}")
        self.total = total
        self._starts: List[int] = []
        self._ends: List[int] = []

    # -- mutation ------------------------------------------------------------

    def add(self, offset: int, length: int) -> None:
        """Record bytes [offset, offset+length) as valid (idempotent)."""
        if length <= 0:
            return
        if offset < 0 or offset + length > self.total:
            raise ValueError(
                f"chunk [{offset}, {offset + length}) outside message of {self.total}"
            )
        start, end = offset, offset + length
        # Find all intervals overlapping or adjacent to [start, end).
        i = bisect_right(self._starts, start)
        lo = i
        if lo > 0 and self._ends[lo - 1] >= start:
            lo -= 1
        hi = lo
        while hi < len(self._starts) and self._starts[hi] <= end:
            hi += 1
        if lo < hi:
            first = self._starts[lo]
            if first < start:
                start = first
            last = self._ends[hi - 1]
            if last > end:
                end = last
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]

    # -- queries ---------------------------------------------------------------

    def covered(self, offset: int, length: int) -> bool:
        """True iff every byte of [offset, offset+length) is valid."""
        if length <= 0:
            return True
        i = bisect_right(self._starts, offset) - 1
        if i < 0:
            return False
        return self._ends[i] >= offset + length

    @property
    def complete(self) -> bool:
        """The whole message arrived: the merged intervals are exactly
        ``[0, total)`` (or the message is empty)."""
        ends = self._ends
        if not ends:
            return self.total == 0
        return len(ends) == 1 and self._starts[0] == 0 and ends[0] == self.total

    def valid_bytes(self) -> int:
        return sum(self._ends) - sum(self._starts)

    def ranges(self) -> List[Tuple[int, int]]:
        """Valid intervals as (offset, length) pairs, ascending."""
        return [(s, e - s) for s, e in zip(self._starts, self._ends)]

    def gaps(self) -> List[Tuple[int, int]]:
        """Missing intervals as (offset, length) pairs, ascending."""
        out: List[Tuple[int, int]] = []
        cursor = 0
        for s, e in zip(self._starts, self._ends):
            if s > cursor:
                out.append((cursor, s - cursor))
            cursor = e
        if cursor < self.total:
            out.append((cursor, self.total - cursor))
        return out

    def fraction_valid(self) -> float:
        return 1.0 if self.total == 0 else self.valid_bytes() / self.total

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.ranges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidityMap):
            return NotImplemented
        return (
            self.total == other.total
            and self._starts == other._starts
            and self._ends == other._ends
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ValidityMap {self.valid_bytes()}/{self.total} in {len(self._starts)} ranges>"
