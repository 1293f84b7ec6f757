"""Wire-level frame representation and header-size constants.

A :class:`Frame` is what traverses links: an Ethernet frame whose payload
is a network-layer object (normally an :class:`repro.transport.ip.IpPacket`).
Payloads are carried as Python object references — the simulator never
serializes protocol objects to bytes at the link layer — but every frame
carries an exact ``wire_size`` so serialization delays and queue
occupancy are computed from real on-the-wire byte counts.
"""

from __future__ import annotations

from typing import Any

# Ethernet sizing.  ETH_OVERHEAD covers header (14) + FCS (4) + preamble/
# SFD (8) + inter-frame gap (12), i.e. the full per-frame cost on the wire.
ETH_HEADER = 14
ETH_FCS = 4
ETH_PREAMBLE_IFG = 20
ETH_OVERHEAD = ETH_HEADER + ETH_FCS + ETH_PREAMBLE_IFG  # 38 bytes
ETH_MIN_PAYLOAD = 46
ETH_MTU = 1500  # default link MTU (IP packet size limit)

class Frame:
    """One Ethernet frame in flight.

    ``src`` / ``dst`` are host ids (our stand-in for MAC addresses; the
    testbeds built here are small enough that a flat id space is exact).
    ``payload_size`` is the size in bytes of the encapsulated network-layer
    packet; ``wire_size`` adds Ethernet framing and padding.

    Implemented as a plain ``__slots__`` class (not a dataclass):
    bandwidth runs allocate one per MTU of traffic, so construction cost
    and per-instance dict overhead are on the hot path.  ``wire_size`` is
    precomputed at construction — frames are immutable once in flight.
    """

    __slots__ = ("src", "dst", "payload", "payload_size", "wire_size")

    def __init__(self, src: int, dst: int, payload: Any, payload_size: int):
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_size = payload_size
        # Bytes this frame occupies on the wire, padding included.
        self.wire_size = (
            payload_size if payload_size >= ETH_MIN_PAYLOAD else ETH_MIN_PAYLOAD
        ) + ETH_OVERHEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame {self.src}->{self.dst} "
            f"{self.payload_size}B {type(self.payload).__name__}>"
        )


BROADCAST = -1


def serialization_ns(size_bytes: int, bandwidth_bps: float) -> int:
    """Time to clock ``size_bytes`` onto a link of ``bandwidth_bps``."""
    if bandwidth_bps <= 0:
        raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
    return int(round(size_bytes * 8 * 1e9 / bandwidth_bps))
