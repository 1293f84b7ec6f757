"""Oracle property tests for the rewritten frame- and message-path
algorithms.

The MPA marker writer/reader weave and strip markers by slice
arithmetic, and IP reassembly extends the last range in O(1) when a
fragment arrives in order.  Each oracle below is the earlier
implementation, kept verbatim (as a function over the same state), and
every observable of the live code must equal the oracle's after every
step: wire bytes, stripped bytes, stream positions and marker counters
for MPA; for IP, ``ranges`` after every ``add`` and what ``add``
returns, which says whether the datagram is whole.  IP also refuses a
fragment that overlaps received bytes without lying inside them;
:func:`oracle_overlaps` states that rule over the merged ranges.  The
DDP validity map answers ``complete`` in O(1) from its merged
intervals; it must agree with the byte count of its ranges.
"""

import struct
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.mpa.markers import MARKER_SIZE, MarkedStreamReader, MarkedStreamWriter
from repro.memory.validity import ValidityMap
import pytest

from repro.transport.ip import FragmentOverlap, _Reassembly

_MARKER = struct.Struct("!HH")


# -- oracles: the per-chunk loops these algorithms replaced -----------------

class OracleWriter:
    def __init__(self, spacing: int):
        self.spacing = spacing
        self.stream_pos = 0
        self.markers_emitted = 0

    def emit_fpdu(self, fpdu: bytes) -> Tuple[bytes, int]:
        out = bytearray()
        fpdu_start = self.stream_pos
        idx = 0
        inserted = 0
        while idx < len(fpdu):
            if self.stream_pos % self.spacing == 0:
                back = (self.stream_pos - fpdu_start) & 0xFFFF
                out += _MARKER.pack(0, back)
                self.stream_pos += MARKER_SIZE
                inserted += 1
                continue
            take = min(
                self.spacing - self.stream_pos % self.spacing,
                len(fpdu) - idx,
            )
            out += fpdu[idx : idx + take]
            idx += take
            self.stream_pos += take
        self.markers_emitted += inserted
        return bytes(out), inserted


class OracleReader:
    def __init__(self, spacing: int):
        self.spacing = spacing
        self.stream_pos = 0
        self._pending_marker = 0
        self._marker_buf = bytearray()
        self.markers_stripped = 0
        self.last_marker_pointer = 0

    def feed(self, chunk: bytes) -> bytes:
        out = bytearray()
        idx = 0
        while idx < len(chunk):
            if self._pending_marker > 0:
                take = min(self._pending_marker, len(chunk) - idx)
                self._marker_buf += chunk[idx : idx + take]
                self._pending_marker -= take
                idx += take
                self.stream_pos += take
                if self._pending_marker == 0:
                    _, pointer = _MARKER.unpack(bytes(self._marker_buf))
                    self.last_marker_pointer = pointer
                    self._marker_buf.clear()
                    self.markers_stripped += 1
                continue
            if self.stream_pos % self.spacing == 0:
                self._pending_marker = MARKER_SIZE
                continue
            take = min(
                self.spacing - self.stream_pos % self.spacing,
                len(chunk) - idx,
            )
            out += chunk[idx : idx + take]
            idx += take
            self.stream_pos += take
        return bytes(out)


def oracle_add(ranges: List[Tuple[int, int]], start: int, size: int) -> List[Tuple[int, int]]:
    end = start + size
    merged: List[Tuple[int, int]] = []
    for s, e in ranges:
        if e < start or s > end:
            merged.append((s, e))
        else:
            start, end = min(s, start), max(e, end)
    merged.append((start, end))
    merged.sort()
    out: List[Tuple[int, int]] = []
    for s, e in merged:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def oracle_overlaps(ranges: List[Tuple[int, int]], start: int, size: int) -> bool:
    """True if ``[start, start + size)`` shares bytes with a received
    range but does not lie inside one."""
    end = start + size
    hits = [(s, e) for s, e in ranges if min(e, end) > max(s, start)]
    return bool(hits) and not any(s <= start and end <= e for s, e in hits)


# -- markers -------------------------------------------------------------------

def _chunkings(draw, data: bytes) -> List[bytes]:
    """Split ``data`` at random points, with a run of 1-byte chunks."""
    n = len(data)
    cuts = set(draw(st.lists(st.integers(1, max(1, n - 1)), max_size=40)))
    run_start = draw(st.integers(0, n))
    cuts.update(range(run_start, min(n, run_start + draw(st.integers(0, 64)))))
    bounds = [0] + sorted(c for c in cuts if 0 < c < n) + [n]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def marked_streams(draw):
    spacing = draw(st.sampled_from([8, 12, 64, 512]))
    sizes = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=6))
    fpdus = [bytes((i + k) & 0xFF for k in range(n)) for i, n in enumerate(sizes)]
    return spacing, fpdus, draw(st.data())


@settings(max_examples=200, deadline=None)
@given(marked_streams())
def test_marker_weave_and_strip_match_the_per_chunk_oracle(case):
    spacing, fpdus, data = case
    writer, oracle_writer = MarkedStreamWriter(spacing=spacing), OracleWriter(spacing)
    wire = bytearray()
    for fpdu in fpdus:
        got = writer.emit_fpdu(fpdu)
        assert got == oracle_writer.emit_fpdu(fpdu)
        assert type(got[0]) is bytes
        assert writer.stream_pos == oracle_writer.stream_pos
        assert writer.markers_emitted == oracle_writer.markers_emitted
        wire += got[0]

    reader, oracle_reader = MarkedStreamReader(spacing=spacing), OracleReader(spacing)
    stripped = bytearray()
    for chunk in _chunkings(data.draw, bytes(wire)):
        got = reader.feed(chunk)
        assert got == oracle_reader.feed(chunk)
        assert type(got) is bytes
        assert reader.stream_pos == oracle_reader.stream_pos
        assert reader.markers_stripped == oracle_reader.markers_stripped
        assert reader.last_marker_pointer == oracle_reader.last_marker_pointer
        assert reader._pending_marker == oracle_reader._pending_marker
        stripped += got
    assert bytes(stripped) == b"".join(fpdus)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 600), st.integers(0, 3000), st.integers(1, 8))
def test_marker_split_at_every_offset_inside_a_marker(start_pos, size, cut):
    """A chunk boundary at each byte of a marker, from any stream
    position: the reader resumes the marker in the next chunk."""
    spacing = 64
    writer, oracle_writer = MarkedStreamWriter(spacing=spacing), OracleWriter(spacing)
    writer.stream_pos = oracle_writer.stream_pos = start_pos
    fpdu = bytes(k & 0xFF for k in range(size))
    wire, _ = writer.emit_fpdu(fpdu)
    assert (wire, writer.stream_pos) == (
        oracle_writer.emit_fpdu(fpdu)[0], oracle_writer.stream_pos
    )
    reader, oracle_reader = MarkedStreamReader(spacing=spacing), OracleReader(spacing)
    reader.stream_pos = oracle_reader.stream_pos = start_pos
    for i in range(0, len(wire), cut):
        chunk = wire[i : i + cut]
        assert reader.feed(chunk) == oracle_reader.feed(chunk)
        assert reader.last_marker_pointer == oracle_reader.last_marker_pointer
        assert reader.markers_stripped == oracle_reader.markers_stripped
    assert reader.feed(b"") == oracle_reader.feed(b"") == b""
    assert reader.stream_pos == oracle_reader.stream_pos


# -- IP reassembly ---------------------------------------------------------------

@st.composite
def fragment_sequences(draw):
    total = draw(st.integers(1, 200))
    step = draw(st.integers(1, 40))
    frags = [(off, min(step, total - off)) for off in range(0, total, step)]
    # Duplicates and overlapping extents, then any arrival order (the
    # in-order case included).
    frags += draw(st.lists(st.sampled_from(frags), max_size=5))
    frags += draw(st.lists(
        st.tuples(st.integers(0, total - 1), st.integers(0, 50)), max_size=5,
    ))
    if draw(st.booleans()):
        frags = draw(st.permutations(frags))
    return total, frags


@settings(max_examples=300, deadline=None)
@given(fragment_sequences())
def test_reassembly_ranges_match_the_merge_oracle(case):
    total, frags = case
    state = _Reassembly(payload=None, proto="udp", total=total)
    expected: List[Tuple[int, int]] = []
    for start, size in frags:
        if oracle_overlaps(expected, start, size):
            with pytest.raises(FragmentOverlap):
                state.add(start, size)
            assert state.ranges == expected
            return  # the stack drops the datagram here
        was_whole = expected == [(0, total)]
        whole = state.add(start, size)
        expected = oracle_add(expected, start, size)
        assert state.ranges == expected
        # True from the fragment that completes the datagram (the stack
        # then delivers it and drops the state), not from a later copy.
        assert whole == (expected == [(0, total)] and not was_whole)


@settings(max_examples=300, deadline=None)
@given(fragment_sequences())
def test_validity_map_complete_matches_the_byte_count(case):
    total, frags = case
    assert ValidityMap(0).complete
    vmap = ValidityMap(total)
    for start, size in frags:
        vmap.add(start, min(size, total - start))
        covered = sum(length for _, length in vmap.ranges())
        assert vmap.valid_bytes() == covered
        assert vmap.complete == (covered == total)
