"""TCP segment representation and flag constants."""

from __future__ import annotations

from dataclasses import dataclass

TCP_HEADER = 20

# Flag bits.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

_FLAG_NAMES = [(SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"), (RST, "RST"), (PSH, "PSH")]


def flag_names(flags: int) -> str:
    return "|".join(name for bit, name in _FLAG_NAMES if flags & bit) or "-"


@dataclass
class TcpSegment:
    """One TCP segment as carried by IP.

    ``seq`` numbers bytes; SYN and FIN each consume one sequence number,
    exactly as in the real protocol, so the connection state machine and
    the tests exercise genuine sequence arithmetic.
    """

    src_port: int
    dst_port: int
    seq: int
    ack_seq: int
    flags: int
    window: int
    payload: bytes = b""

    @property
    def seq_span(self) -> int:
        """Sequence space consumed: payload bytes plus SYN/FIN."""
        span = len(self.payload)
        if self.flags & SYN:
            span += 1
        if self.flags & FIN:
            span += 1
        return span

    @property
    def end_seq(self) -> int:
        return self.seq + self.seq_span

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSeg {self.src_port}->{self.dst_port} {flag_names(self.flags)} "
            f"seq={self.seq} ack={self.ack_seq} len={len(self.payload)}>"
        )
