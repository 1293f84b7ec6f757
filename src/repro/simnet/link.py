"""Point-to-point full-duplex link.

A link joins two ports (host NICs or switch ports).  Each direction has
independent capacity: bandwidth sets serialization time, ``delay_ns`` is
propagation.  The *sending port* owns the transmit queue and performs
serialization (see :mod:`repro.simnet.nic`); the link only knows who is
on each end and the physical parameters.
"""

from __future__ import annotations

from typing import Dict

from .packet import ETH_MTU, serialization_ns


class Link:
    """Physical parameters of a cable plus its two endpoints.

    Endpoints are attached with :meth:`attach`; each must expose
    ``on_frame(frame)`` (called when a frame fully arrives) and have the
    link assigned to its ``link`` attribute by the caller.
    """

    #: Exported series (see :mod:`repro.obs.metrics`), labelled link;
    #: registered by :func:`repro.simnet.nic.cable`.
    METRICS = (
        ("simnet.link.tx_frames", "counter", "frames"),
        ("simnet.link.tx_bytes", "counter", "bytes"),
    )

    def __init__(
        self,
        bandwidth_bps: float = 10e9,
        delay_ns: int = 500,
        mtu: int = ETH_MTU,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_ns < 0:
            raise ValueError(f"negative propagation delay: {delay_ns}")
        if mtu < 576:
            # 576 is the minimum IP MTU; anything smaller breaks fragmentation.
            raise ValueError(f"MTU too small: {mtu}")
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay_ns = int(delay_ns)
        self.mtu = int(mtu)
        self.name = name
        self._a = None
        self._b = None
        # Serialization-time memo: traffic is dominated by a handful of
        # distinct wire sizes (full MTU, minimum frame, ACKs), so each is
        # computed once — the cached value is bit-identical to calling
        # packet.serialization_ns directly.
        self._ser_cache: Dict[int, int] = {}

    def serialization_ns(self, wire_size: int) -> int:
        """Time to clock ``wire_size`` bytes onto this link (memoized)."""
        t = self._ser_cache.get(wire_size)
        if t is None:
            t = self._ser_cache[wire_size] = serialization_ns(
                wire_size, self.bandwidth_bps
            )
        return t

    def attach(self, a, b) -> None:
        """Connect the two endpoint ports."""
        if self._a is not None or self._b is not None:
            raise RuntimeError(f"link {self.name!r} already attached")
        self._a, self._b = a, b

    def peer_of(self, port):
        """The port on the other end from ``port``."""
        if port is self._a:
            return self._b
        if port is self._b:
            return self._a
        raise ValueError("port is not attached to this link")

    @property
    def frames(self) -> int:
        """Frames sent over the link, both directions: the endpoint
        ports' transmit counters."""
        return self._a.tx_frames + self._b.tx_frames if self.attached else 0

    @property
    def bytes(self) -> int:
        """Wire bytes sent over the link, both directions."""
        return self._a.tx_bytes + self._b.tx_bytes if self.attached else 0

    @property
    def attached(self) -> bool:
        return self._a is not None and self._b is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gbps = self.bandwidth_bps / 1e9
        return f"<Link {self.name!r} {gbps:g}Gb/s delay={self.delay_ns}ns mtu={self.mtu}>"
