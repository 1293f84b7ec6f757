"""MPA layer: FPDU framing, stream markers, CRC (RC path only)."""

from .connection import MpaConnection, MpaError, NEGOTIATING, OPERATIONAL
from .crc import CRC_SIZE, CrcError, append_crc, crc32, split_and_verify
from .fpdu import FramingError, MAX_ULPDU, build_fpdu, fpdu_size, parse_fpdu
from .markers import (
    MARKER_SIZE, MARKER_SPACING, MarkedStreamReader, MarkedStreamWriter,
    marker_count_for,
)

__all__ = [
    "CRC_SIZE", "CrcError", "FramingError", "MARKER_SIZE", "MARKER_SPACING",
    "MAX_ULPDU", "MarkedStreamReader", "MarkedStreamWriter",
    "MpaConnection", "MpaError", "NEGOTIATING", "OPERATIONAL", "append_crc",
    "build_fpdu", "crc32", "fpdu_size", "marker_count_for", "parse_fpdu",
    "split_and_verify",
]
