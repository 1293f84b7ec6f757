"""MPA marker insertion and removal.

Markers are 4-byte back-pointers woven into the TCP stream at every
position that is a multiple of 512 bytes (counted over the marked
stream, markers included, from the start of full-operation mode).  Each
marker records the distance back to the header of the FPDU it falls
inside (0 when it lands exactly on an FPDU boundary), letting a receiver
that lost framing re-locate FPDU headers in arriving segments
(RFC 5044).

The paper singles this machinery out as a key overhead of TCP-based
iWARP: "Packet marking, which is used to correct the semantic mismatch
between message-based iWARP and stream-based TCP, is a high overhead
activity and is very expensive to implement in hardware" (§IV.A).  The
implementation here is real — markers are inserted into and stripped
from the actual byte stream — so both the correctness tests and the
marker-cost ablation run against genuine framing.
"""

from __future__ import annotations

import struct
from typing import Tuple

MARKER_SIZE = 4
MARKER_SPACING = 512
_MARKER = struct.Struct("!HH")  # reserved, FPDU pointer (bytes back to header)


class MarkedStreamWriter:
    """Sender side: weaves markers into outgoing FPDU bytes.

    ``stream_pos`` counts every byte emitted (markers included) since
    full-operation mode began; the receiver mirrors the count, which is
    what makes position-based stripping exact.
    """

    def __init__(self, enabled: bool = True, spacing: int = MARKER_SPACING):
        if spacing % 4 != 0 or spacing <= MARKER_SIZE:
            raise ValueError(f"invalid marker spacing {spacing}")
        self.enabled = enabled
        self.spacing = spacing
        self.stream_pos = 0
        self.markers_emitted = 0

    def emit_fpdu(self, fpdu: bytes) -> Tuple[bytes, int]:
        """Return ``(wire_bytes, markers_inserted)`` for one FPDU."""
        size = len(fpdu)
        if not self.enabled:
            self.stream_pos += size
            return fpdu, 0
        spacing = self.spacing
        start = pos = self.stream_pos
        # Bytes to the next marker position, or 0 when a marker is due
        # before the first FPDU byte.
        room = -pos % spacing
        if room >= size:
            self.stream_pos = pos + size
            return bytes(fpdu), 0
        parts = [fpdu[:room]]
        idx = room
        pos += room
        data_per_marker = spacing - MARKER_SIZE
        inserted = 0
        while idx < size:
            # FPDUPTR is 16-bit; spec-conformant MULPDUs keep the
            # distance under the marker spacing, but oversized test
            # FPDUs must not crash the writer.
            parts.append(_MARKER.pack(0, (pos - start) & 0xFFFF))
            end = idx + data_per_marker
            if size < end:
                end = size
            parts.append(fpdu[idx:end])
            pos += MARKER_SIZE + end - idx
            idx = end
            inserted += 1
        self.stream_pos = pos
        self.markers_emitted += inserted
        return b"".join(parts), inserted


class MarkedStreamReader:
    """Receiver side: strips markers by stream position and returns the
    de-marked FPDU byte stream.  Marker back-pointers are not checked:
    framing comes from the FPDU length fields, and the last pointer read
    is kept in :attr:`last_marker_pointer` for inspection."""

    def __init__(self, enabled: bool = True, spacing: int = MARKER_SPACING):
        if spacing % 4 != 0 or spacing <= MARKER_SIZE:
            raise ValueError(f"invalid marker spacing {spacing}")
        self.enabled = enabled
        self.spacing = spacing
        self.stream_pos = 0
        self._pending_marker = 0  # marker bytes still to swallow
        self._marker_buf = bytearray()
        self.markers_stripped = 0
        self.last_marker_pointer = 0

    def feed(self, chunk: bytes) -> bytes:
        """Consume raw TCP bytes; return de-marked FPDU bytes."""
        size = len(chunk)
        if not self.enabled:
            self.stream_pos += size
            return chunk
        spacing = self.spacing
        pos = self.stream_pos
        idx = 0
        pending = self._pending_marker
        if pending:
            # The tail of a marker split across chunks.
            idx = size if size < pending else pending
            self._marker_buf += chunk[:idx]
            pos += idx
            pending -= idx
            self._pending_marker = pending
            if pending:
                self.stream_pos = pos
                return b""
            self.last_marker_pointer = _MARKER.unpack(self._marker_buf)[1]
            self._marker_buf.clear()
            self.markers_stripped += 1
        parts = []
        while idx < size:
            room = -pos % spacing  # data bytes before the next marker
            if room:
                end = idx + room
                if size < end:
                    end = size
                parts.append(chunk[idx:end])
                pos += end - idx
                idx = end
            elif size - idx >= MARKER_SIZE:
                self.last_marker_pointer = _MARKER.unpack_from(chunk, idx)[1]
                self.markers_stripped += 1
                idx += MARKER_SIZE
                pos += MARKER_SIZE
            else:
                # The marker continues in the next chunk.
                self._marker_buf += chunk[idx:]
                self._pending_marker = MARKER_SIZE - (size - idx)
                pos += size - idx
                idx = size
        self.stream_pos = pos
        return b"".join(parts)


def marker_count_for(fpdu_len: int, stream_pos: int, spacing: int = MARKER_SPACING) -> int:
    """How many markers a sender at ``stream_pos`` weaves into an FPDU of
    ``fpdu_len`` bytes (for cost accounting without materializing it)."""
    count = 0
    pos = stream_pos
    remaining = fpdu_len
    while remaining > 0:
        if pos % spacing == 0:
            pos += MARKER_SIZE
            count += 1
            continue
        take = min(spacing - pos % spacing, remaining)
        pos += take
        remaining -= take
    return count
