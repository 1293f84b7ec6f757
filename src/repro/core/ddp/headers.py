"""DDP/RDMAP wire headers.

Byte-exact encodings (struct-packed) of the DDP segment headers from
RFC 5041/5040, plus the datagram extension header the paper's design
needs (§IV.B): because UD segments can arrive in any order or not at
all, each one carries its message id and total message length so the
receiver can track reassembly and validity without connection state.

Layout of every DDP segment::

    +--------+--------+----------------------+-------------------+---------+
    | flags  | opcode | tagged OR untagged   | UD extension      | payload |
    | 1 B    | 1 B    | 12 B / 12 B          | 24 B (UD only)    |         |
    +--------+--------+----------------------+-------------------+---------+

    tagged:   stag (4 B) + tagged offset TO (8 B)
    untagged: queue number QN (4 B) + MSN (4 B) + message offset MO (4 B)
    UD ext:   msg_id (8 B) + msg_total (8 B) + msg_offset (8 B)

The TAGGED and LAST flags mirror the DDP specification; CRC32 protecting
the whole segment is carried by MPA on RC and appended here on UD (the
paper requires CRC32 always for datagram-iWARP, §IV.B item 6).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

# Flag bits (first control byte).
FLAG_TAGGED = 0x80
FLAG_LAST = 0x40
#: Set when the UD extension header (msg_id + msg_total) follows — always
#: on datagram QPs, and on Write-Record over reliable transports too
#: (the operation "is also valid for a reliable transport", §IV.B.3).
FLAG_UDEXT = 0x20

# RDMAP opcodes (second control byte).  0-6 follow RFC 5040; WRITE_RECORD
# is the paper's extension.
OP_WRITE = 0x0
OP_READ_REQUEST = 0x1
OP_READ_RESPONSE = 0x2
OP_SEND = 0x3
OP_SEND_SE = 0x4
OP_TERMINATE = 0x6
OP_WRITE_RECORD = 0x8

OPCODE_NAMES = {
    OP_WRITE: "WRITE",
    OP_READ_REQUEST: "READ_REQUEST",
    OP_READ_RESPONSE: "READ_RESPONSE",
    OP_SEND: "SEND",
    OP_SEND_SE: "SEND_SE",
    OP_TERMINATE: "TERMINATE",
    OP_WRITE_RECORD: "WRITE_RECORD",
}

_CTRL = struct.Struct("!BB")
_TAGGED = struct.Struct("!IQ")
_UNTAGGED = struct.Struct("!III")
_UDEXT = struct.Struct("!QQQ")

CTRL_SIZE = _CTRL.size            # 2
TAGGED_SIZE = _TAGGED.size        # 12
UNTAGGED_SIZE = _UNTAGGED.size    # 12
UDEXT_SIZE = _UDEXT.size          # 24

#: Untagged queue numbers (RFC 5040 §5): 0 = send, 1 = RDMA read request,
#: 2 = terminate.
QN_SEND = 0
QN_READ_REQUEST = 1
QN_TERMINATE = 2

#: RDMA read request payload: sink stag, sink TO, read length,
#: source stag, source TO.
_READ_REQ = struct.Struct("!IQIIQ")
READ_REQ_SIZE = _READ_REQ.size


class HeaderError(Exception):
    """Malformed or truncated DDP segment."""


@dataclass
class DdpSegment:
    """One parsed (or to-be-encoded) DDP segment."""

    opcode: int
    last: bool
    payload: bytes
    # Tagged fields.
    tagged: bool = False
    stag: int = 0
    to: int = 0
    # Untagged fields.
    qn: int = 0
    msn: int = 0
    mo: int = 0
    # UD extension (present on datagram QPs).  ``msg_offset`` is the
    # segment's byte offset within its message: tagged UD segments need
    # it so the target can recover the message's base TO for validity
    # bookkeeping regardless of arrival order.
    msg_id: Optional[int] = None
    msg_total: Optional[int] = None
    msg_offset: int = 0

    @property
    def wire_size(self) -> int:
        size = CTRL_SIZE + (TAGGED_SIZE if self.tagged else UNTAGGED_SIZE) + len(self.payload)
        if self.msg_id is not None:
            size += UDEXT_SIZE
        return size

    def encode(self) -> bytes:
        flags = (FLAG_TAGGED if self.tagged else 0) | (FLAG_LAST if self.last else 0)
        if self.msg_id is not None:
            flags |= FLAG_UDEXT
        parts = [_CTRL.pack(flags, self.opcode)]
        if self.tagged:
            parts.append(_TAGGED.pack(self.stag, self.to))
        else:
            parts.append(_UNTAGGED.pack(self.qn, self.msn, self.mo))
        if self.msg_id is not None:
            if self.msg_total is None:
                raise HeaderError("UD extension requires msg_total")
            parts.append(_UDEXT.pack(self.msg_id, self.msg_total, self.msg_offset))
        parts.append(self.payload)
        return b"".join(parts)


def decode_segment(data: bytes, ud: Optional[bool] = None) -> DdpSegment:
    """Parse a DDP segment.

    The UD extension's presence is carried in the flags byte; the
    optional ``ud`` argument cross-checks it (a UD channel receiving a
    segment without the extension is malformed, and vice versa for
    non-Write-Record RC traffic).
    """
    if len(data) < CTRL_SIZE:
        raise HeaderError(f"segment of {len(data)} bytes has no control header")
    flags, opcode = _CTRL.unpack_from(data)
    tagged = bool(flags & FLAG_TAGGED)
    last = bool(flags & FLAG_LAST)
    has_udext = bool(flags & FLAG_UDEXT)
    if ud is True and not has_udext:
        raise HeaderError("datagram segment missing UD extension header")
    off = CTRL_SIZE
    seg = DdpSegment(opcode=opcode, last=last, payload=b"", tagged=tagged)
    if tagged:
        if len(data) < off + TAGGED_SIZE:
            raise HeaderError("truncated tagged header")
        seg.stag, seg.to = _TAGGED.unpack_from(data, off)
        off += TAGGED_SIZE
    else:
        if len(data) < off + UNTAGGED_SIZE:
            raise HeaderError("truncated untagged header")
        seg.qn, seg.msn, seg.mo = _UNTAGGED.unpack_from(data, off)
        off += UNTAGGED_SIZE
    if has_udext:
        if len(data) < off + UDEXT_SIZE:
            raise HeaderError("truncated UD extension header")
        seg.msg_id, seg.msg_total, seg.msg_offset = _UDEXT.unpack_from(data, off)
        off += UDEXT_SIZE
    seg.payload = data[off:]
    return seg


def encode_read_request(
    sink_stag: int, sink_to: int, length: int, src_stag: int, src_to: int
) -> bytes:
    return _READ_REQ.pack(sink_stag, sink_to, length, src_stag, src_to)


def decode_read_request(payload: bytes) -> Tuple[int, int, int, int, int]:
    if len(payload) < READ_REQ_SIZE:
        raise HeaderError("truncated RDMA read request")
    return _READ_REQ.unpack_from(payload)
