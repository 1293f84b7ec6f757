"""FPDU framing: length prefix, padding, CRC trailer.

An FPDU (Framed PDU) is how MPA delimits DDP segments inside the TCP
byte stream::

    +-----------+---------+---------+---------+
    | ULPDU len |  ULPDU  | padding |  CRC32  |
    |   2 B     |         | 0-3 B   |   4 B   |
    +-----------+---------+---------+---------+

Padding brings the pre-CRC length to a 4-byte multiple (RFC 5044).
This is the work — together with marker insertion — that datagram-iWARP
deletes entirely: "datagram-iWARP does not require the MPA layer"
(§IV.B item 5).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .crc import CRC_SIZE, CrcError, append_crc, crc32

_LEN = struct.Struct("!H")
LEN_SIZE = _LEN.size
#: Largest ULPDU a 16-bit length prefix can frame.
MAX_ULPDU = 0xFFFF


class FramingError(Exception):
    """Structurally invalid FPDU in the stream."""


def pad_for(ulpdu_len: int) -> int:
    return (-(LEN_SIZE + ulpdu_len)) % 4


def fpdu_size(ulpdu_len: int, crc_enabled: bool = True) -> int:
    """Total FPDU bytes for a ULPDU of ``ulpdu_len``."""
    # Length prefix and ULPDU, padded to a 4-byte multiple.
    return (LEN_SIZE + ulpdu_len + 3) // 4 * 4 + (CRC_SIZE if crc_enabled else 0)


def build_fpdu(ulpdu: bytes, crc_enabled: bool = True) -> bytes:
    if len(ulpdu) > MAX_ULPDU:
        raise FramingError(f"ULPDU of {len(ulpdu)} bytes exceeds MPA maximum {MAX_ULPDU}")
    body = _LEN.pack(len(ulpdu)) + ulpdu + b"\x00" * pad_for(len(ulpdu))
    return append_crc(body) if crc_enabled else body


def parse_fpdu(buf: bytes, offset: int, crc_enabled: bool = True) -> Optional[Tuple[bytes, int]]:
    """Parse one FPDU from ``buf`` starting at ``offset``.

    Returns ``(ulpdu, bytes_consumed)`` or None if the buffer does not
    yet hold a complete FPDU.  Raises :class:`CrcError` on corruption.
    """
    avail = len(buf) - offset
    if avail < LEN_SIZE:
        return None
    (ulen,) = _LEN.unpack_from(buf, offset)
    total = fpdu_size(ulen, crc_enabled)
    if avail < total:
        return None
    frame = bytes(buf[offset : offset + total])
    if crc_enabled:
        body = frame[:-CRC_SIZE]
        (expect,) = struct.unpack("!I", frame[-CRC_SIZE:])
        actual = crc32(body)
        if actual != expect:
            raise CrcError(
                f"FPDU CRC mismatch at stream offset {offset}: "
                f"computed {actual:#010x}, trailer {expect:#010x}"
            )
    else:
        body = frame
    ulpdu = body[LEN_SIZE : LEN_SIZE + ulen]
    return ulpdu, total
