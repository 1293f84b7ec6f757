"""CRC-32 as used by MPA framing and datagram-iWARP DDP segments.

Datagram-iWARP "always requires the use of Cyclic Redundancy Check
(CRC32) when sending messages" (§IV.B item 6); on the RC path the CRC
lives in the MPA FPDU trailer.  zlib's CRC-32 (the same polynomial
family) stands in for CRC32c — the protection property, not the exact
polynomial, is what the reproduction needs.
"""

from __future__ import annotations

import struct
import zlib

CRC_SIZE = 4
_CRC = struct.Struct("!I")


#: ``crc32(data[, value])`` is zlib's own: Python 3 already returns it
#: unsigned, so no wrapper call sits on the per-segment path.
crc32 = zlib.crc32


def append_crc(data: bytes) -> bytes:
    """``data`` with its 4-byte CRC trailer."""
    return data + _CRC.pack(crc32(data))


class CrcError(Exception):
    """CRC mismatch on a received FPDU or DDP segment."""


def split_and_verify(data: bytes) -> bytes:
    """Strip and verify a CRC trailer; returns the protected bytes."""
    if len(data) < CRC_SIZE:
        raise CrcError(f"{len(data)} bytes cannot hold a CRC trailer")
    body, trailer = data[:-CRC_SIZE], data[-CRC_SIZE:]
    (expect,) = _CRC.unpack(trailer)
    actual = crc32(body)
    if actual != expect:
        raise CrcError(f"CRC mismatch: computed {actual:#010x}, trailer {expect:#010x}")
    return body
