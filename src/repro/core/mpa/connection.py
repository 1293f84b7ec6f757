"""MPA connection: negotiation + framed, marked, CRC-protected stream.

Binds the marker writer/reader and FPDU framer to one TCP socket, with
the MPA Request/Reply negotiation exchange (markers and CRC are
negotiated capabilities in RFC 5044; both sides here must agree, and
the marker epoch — stream position 0 — starts after negotiation).

CPU accounting happens here for the whole RC-side iWARP framing burden:
per-FPDU framing work, per-marker insertion/stripping, the staging copy
over the payload, CRC computation, and the user-space library's recv
syscalls — everything §IV.A argues datagram-iWARP avoids.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..fsm import pair_table, transition as _fsm_transition
from ...simnet.engine import Future
from ...transport.tcp.socket import TcpSocket
from .crc import CrcError
from .fpdu import MAX_ULPDU, build_fpdu, parse_fpdu
from .markers import MarkedStreamReader, MarkedStreamWriter

_NEG = struct.Struct("!HBB4x")  # magic, type, flags, reserved
NEG_SIZE = _NEG.size
_MAGIC = 0x4D50  # "MP"
_TYPE_REQ = 1
_TYPE_REP = 2
_FLAG_MARKERS = 0x1
_FLAG_CRC = 0x2

NEGOTIATING = "NEGOTIATING"
OPERATIONAL = "OPERATIONAL"
FAILED = "FAILED"

#: The MPA lifecycle, declared once: ``(state, event) -> state``
#: (RFC 5044: startup exchange, then full operation until the stream
#: dies).  ``neg_reject`` covers every negotiation failure (bad magic,
#: capability mismatch, unexpected type); ``crc_mismatch`` is a
#: corrupted FPDU on an operational stream, ``stream_error`` any other
#: fatal stream condition.  FAILED is terminal: an MPA stream is never
#: revived, the ULP tears the QP down instead.
MPA_EVENT_TRANSITIONS: "Dict[Tuple[str, str], str]" = {
    (NEGOTIATING, "neg_complete"): OPERATIONAL,
    (NEGOTIATING, "neg_reject"): FAILED,
    (OPERATIONAL, "crc_mismatch"): FAILED,
    (OPERATIONAL, "stream_error"): FAILED,
}

#: Legal ``(from, to)`` moves, the projection ``_set_state`` enforces.
MPA_TRANSITIONS: "Dict[str, FrozenSet[str]]" = pair_table(MPA_EVENT_TRANSITIONS)


class MpaError(Exception):
    """Negotiation failure or stream corruption."""


class MpaConnection:
    """Full-duplex MPA endpoint over an established TCP socket."""

    def __init__(
        self,
        sock: TcpSocket,
        initiator: bool,
        markers: bool = True,
        crc: bool = True,
    ):
        self.sock = sock
        self.host = sock.stack.host
        self.sim = sock.stack.sim
        self.initiator = initiator
        self.markers = markers
        self.crc = crc
        self.state = NEGOTIATING
        self.ready: Future = self.sim.future()
        self.on_ulpdu: Optional[Callable[[bytes], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None

        self._writer = MarkedStreamWriter(enabled=markers)
        self._reader = MarkedStreamReader(enabled=markers)
        self._rxbuf = bytearray()     # de-marked FPDU byte stream
        self._negbuf = bytearray()
        self.ulpdus_sent = 0
        self.ulpdus_received = 0

        sock.on_data = self._on_bytes
        sock.conn.on_close = self._on_tcp_close
        if initiator:
            sock.established.add_callback(lambda _: self._send_negotiation(_TYPE_REQ))

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------

    def _send_negotiation(self, neg_type: int) -> None:
        flags = (_FLAG_MARKERS if self.markers else 0) | (_FLAG_CRC if self.crc else 0)
        self.sock.send(_NEG.pack(_MAGIC, neg_type, flags))

    def _handle_negotiation(self, frame: bytes) -> None:
        magic, neg_type, flags = _NEG.unpack(frame)
        if magic != _MAGIC:
            self._fail(MpaError(f"bad negotiation magic {magic:#06x}"))
            return
        peer_markers = bool(flags & _FLAG_MARKERS)
        peer_crc = bool(flags & _FLAG_CRC)
        if peer_markers != self.markers or peer_crc != self.crc:
            self._fail(
                MpaError(
                    f"capability mismatch: peer markers={peer_markers} crc={peer_crc}, "
                    f"local markers={self.markers} crc={self.crc}"
                )
            )
            return
        if neg_type == _TYPE_REQ and not self.initiator:
            self._send_negotiation(_TYPE_REP)
            self._become_operational()
        elif neg_type == _TYPE_REP and self.initiator:
            self._become_operational()
        else:
            self._fail(MpaError(f"unexpected negotiation type {neg_type}"))

    def _set_state(self, new_state: str) -> None:
        """Sole state mutator after construction; validates the move
        against :data:`MPA_TRANSITIONS` via the shared
        :func:`repro.core.fsm.transition` helper (same-state is a no-op)."""
        _fsm_transition(self, "MPA", MPA_TRANSITIONS, new_state, MpaError)

    def _become_operational(self) -> None:
        self._set_state(OPERATIONAL)
        if not self.ready.done:
            self.ready.set_result(self)

    def _on_tcp_close(self) -> None:
        """TCP saw the peer's FIN, or a reset: an RST that ``abort``
        sent or the peer did.  Only a reset leaves the connection
        CLOSED here, and it fails the stream at once, in the same
        callback, so the QP errors and flushes with it."""
        if self.sock.conn.state == "CLOSED" and self.state != FAILED:
            self._fail(MpaError("TCP connection reset"))

    def _fail(self, exc: Exception) -> None:
        self._set_state(FAILED)
        if not self.ready.done:
            self.ready.set_result(None)
        if self.on_error is not None:
            self.on_error(exc)

    # ------------------------------------------------------------------
    # Transmit
    # ------------------------------------------------------------------

    def frame_cost_ns(self, ulpdu_len: int) -> int:
        """CPU cost of framing one ULPDU (FPDU build + staging copy +
        CRC).  Exposed so the QP can fold it into a single per-segment
        charge — keeping the send side pipelined instead of queueing all
        framing work behind all DDP work."""
        costs = self.host.costs
        cost = costs.mpa_fpdu_ns
        if self.markers:
            # The staging pass over the payload exists to weave/strip
            # markers; markerless MPA streams the FPDU directly.
            cost += int(costs.mpa_copy_per_byte_ns * ulpdu_len)
        if self.crc:
            cost += costs.crc_ns(ulpdu_len)
        return cost

    def send_ulpdu(self, ulpdu: bytes) -> None:
        """Frame, mark, CRC and transmit one ULPDU (a DDP segment),
        charging the framing cost here (standalone use)."""
        if self.state != OPERATIONAL:
            raise MpaError(f"send_ulpdu in state {self.state}")
        if len(ulpdu) > MAX_ULPDU:
            raise MpaError(f"ULPDU of {len(ulpdu)} bytes exceeds {MAX_ULPDU}")
        self.host.cpu.submit(self.frame_cost_ns(len(ulpdu)), self._emit, ulpdu)

    def emit_ulpdu_now(self, ulpdu: bytes) -> None:
        """Emit with the framing cost already charged by the caller.
        Must run in CPU-execution context."""
        if self.state != OPERATIONAL:
            raise MpaError(f"emit_ulpdu_now in state {self.state}")
        if len(ulpdu) > MAX_ULPDU:
            raise MpaError(f"ULPDU of {len(ulpdu)} bytes exceeds {MAX_ULPDU}")
        self._emit(ulpdu)

    def _emit(self, ulpdu: bytes) -> None:
        fpdu = build_fpdu(ulpdu, crc_enabled=self.crc)
        wire, inserted = self._writer.emit_fpdu(fpdu)
        if inserted:
            self.host.cpu.charge(self.host.costs.mpa_marker_ns * inserted)
        self.ulpdus_sent += 1
        # The library batches FPDUs of one message into one send() call;
        # the per-call syscall/kernel-fixed/copy costs are charged by the
        # RC QP at the first segment of each message, so the stream write
        # here bypasses the socket's per-call accounting.
        self.sock.send_from_stack(wire)

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------

    def _on_bytes(self, chunk: bytes) -> None:
        if self.state == FAILED:
            return
        if self.state == NEGOTIATING:
            self._negbuf += chunk
            if len(self._negbuf) < NEG_SIZE:
                return
            frame = bytes(self._negbuf[:NEG_SIZE])
            rest = bytes(self._negbuf[NEG_SIZE:])
            self._negbuf.clear()
            self._handle_negotiation(frame)
            if self.state != OPERATIONAL or not rest:
                return
            chunk = rest
        self._rxbuf += self._reader.feed(chunk)
        self._drain_fpdus()

    def _drain_fpdus(self) -> None:
        offset = 0
        markers_before = self._reader.markers_stripped
        while True:
            try:
                parsed = parse_fpdu(self._rxbuf, offset, crc_enabled=self.crc)
            except CrcError as exc:
                self._fail(exc)
                return
            if parsed is None:
                break
            ulpdu, consumed = parsed
            offset += consumed
            self.ulpdus_received += 1
            self.host.cpu.submit(self.frame_cost_ns(len(ulpdu)), self._deliver, ulpdu)
        if offset:
            del self._rxbuf[:offset]
        stripped = self._reader.markers_stripped - markers_before
        if stripped:
            self.host.cpu.charge(self.host.costs.mpa_marker_ns * stripped)

    def _deliver(self, ulpdu: bytes) -> None:
        if self.on_ulpdu is not None:
            self.on_ulpdu(ulpdu)

    def close(self) -> None:
        self.sock.close()
