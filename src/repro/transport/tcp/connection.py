"""TCP connection state machine.

A deliberately faithful (if SACK-less) TCP: three-way handshake, MSS
segmentation, sliding window against both the peer's advertised window
and Reno's cwnd, cumulative ACKs with duplicate-ACK fast retransmit,
RFC 6298 retransmission timeouts with Karn's rule, delayed ACKs, and
orderly FIN teardown.

Faithfulness matters to the reproduction: the paper's case for
datagram-iWARP rests on what connection-oriented transports *do* — ACK
processing, in-order head-of-line blocking, per-connection state — so
the RC baseline must earn its overheads mechanically rather than having
them asserted.

Sequence numbers are plain Python ints (no 32-bit wrap); simulations
move far less than 2**63 bytes, and the arithmetic stays honest.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ...core.fsm import pair_table, transition as _fsm_transition
from ...obs import sim_registry, wr_span
from ...simnet.engine import Future, Simulator
from .congestion import RenoCongestion
from ..rto import RtoEstimator
from .segment import ACK, FIN, PSH, RST, SYN, TcpSegment

#: Dead-prefix size at which the send buffer is physically compacted.
#: Below this, ACK processing advances an offset instead of memmoving
#: the whole buffer, which is what made large-message RC runs O(n^2).
_SNDBUF_COMPACT = 256 * 1024

#: Receive buffer that bounds the advertised window.
RCVBUF_BYTES = 16 * 1024 * 1024
#: In-order segments per delayed ACK.
ACK_EVERY = 2

# Connection states.
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
CLOSING = "CLOSING"
TIME_WAIT = "TIME_WAIT"

#: The connection machine, declared once: ``(state, event) -> state``
#: (RFC 793 figure 6 subset and arc labels).  ``reset`` covers both an
#: arriving RST and a local abort, so CLOSED is reachable from every
#: state; losing, duplicating, or reordering a data segment never moves
#: this machine (retransmission absorbs it), which the product model in
#: iwarpcheck states explicitly.
TCP_EVENT_TRANSITIONS: Dict[Tuple[str, str], str] = {
    (CLOSED, "active_open"): SYN_SENT,
    (CLOSED, "passive_syn"): SYN_RCVD,
    (SYN_SENT, "syn_ack"): ESTABLISHED,
    (SYN_SENT, "close"): CLOSED,
    (SYN_SENT, "reset"): CLOSED,
    (SYN_RCVD, "handshake_ack"): ESTABLISHED,
    (SYN_RCVD, "close"): FIN_WAIT_1,
    (SYN_RCVD, "reset"): CLOSED,
    (ESTABLISHED, "close"): FIN_WAIT_1,
    (ESTABLISHED, "peer_fin"): CLOSE_WAIT,
    (ESTABLISHED, "reset"): CLOSED,
    (FIN_WAIT_1, "fin_acked"): FIN_WAIT_2,
    (FIN_WAIT_1, "peer_fin"): CLOSING,
    (FIN_WAIT_1, "peer_fin_acked"): TIME_WAIT,
    (FIN_WAIT_1, "reset"): CLOSED,
    (FIN_WAIT_2, "peer_fin"): TIME_WAIT,
    (FIN_WAIT_2, "reset"): CLOSED,
    (CLOSE_WAIT, "close"): LAST_ACK,
    (CLOSE_WAIT, "reset"): CLOSED,
    (LAST_ACK, "fin_acked"): CLOSED,
    (CLOSING, "fin_acked"): TIME_WAIT,
    (CLOSING, "reset"): CLOSED,
    (TIME_WAIT, "msl_timeout"): CLOSED,
}

#: Legal ``(from, to)`` moves, the projection ``_set_state`` enforces.
TCP_TRANSITIONS: Dict[str, FrozenSet[str]] = pair_table(TCP_EVENT_TRANSITIONS)


class TcpError(Exception):
    """Connection-level failures (reset, send on closed socket, ...)."""


class TcpConnection:
    """One endpoint of a TCP connection, driven entirely by events."""

    #: Exported series (see :mod:`repro.obs.metrics`), labelled host/conn.
    METRICS = (
        ("transport.tcp.segments", "counter", "segments_sent", "dir=tx"),
        ("transport.tcp.segments", "counter", "segments_received", "dir=rx"),
        ("transport.tcp.bytes", "counter", "bytes_sent", "dir=tx"),
        ("transport.tcp.bytes", "counter", "bytes_received", "dir=rx"),
        ("transport.tcp.retransmissions", "counter", "retransmissions"),
        ("transport.tcp.dup_acks", "counter", "dup_acks_total"),
        ("transport.tcp.retransmits", "counter", "retransmits_by_cause", "cause"),
        ("transport.tcp.rto_backoffs", "counter", "rto.backoffs"),
        ("transport.tcp.cwnd_bytes", "gauge", "cong.cwnd"),
        ("transport.tcp.ssthresh_bytes", "gauge", "cong.ssthresh"),
        ("transport.tcp.rto_ns", "gauge", "rto.rto_ns"),
    )

    def __init__(
        self,
        stack,                                # TcpStack (avoid circular import)
        local_port: int,
        remote: Tuple[int, int],
        iss: int,
        mss: int,
    ):
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.local_port = local_port
        self.remote = remote
        self.mss = mss
        self.state = CLOSED

        # Send side.
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_max = iss            # highest sequence ever sent
        self._sndbuf = bytearray()
        # seq of the first *live* send-buffer byte (after SYN).  ACKed
        # bytes are consumed by advancing _snd_head instead of deleting
        # the buffer prefix (an O(buffer) memmove per ACK); the dead
        # prefix is dropped in one amortized delete once it exceeds
        # _SNDBUF_COMPACT.
        self._snd_base = iss + 1
        self._snd_head = 0                # physical offset of _snd_base
        self.peer_window = 64 * 1024
        self.cong = RenoCongestion(mss)
        self.rto = RtoEstimator()
        self._rtx_timer = None
        self._dup_acks = 0
        self._rtt_seq: Optional[int] = None   # end-seq being timed (Karn)
        self._rtt_sent_at = 0
        self._fin_queued = False
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        # Receive side.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcvbuf_bytes = RCVBUF_BYTES
        self._ooo: Dict[int, bytes] = {}   # seq -> payload (out of order)
        self._ooo_fin: Optional[int] = None  # seq of a FIN parked beyond a gap
        self._segs_since_ack = 0
        self._remote_fin = False

        # Upcalls.
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.established: Future = self.sim.future()
        self.closed_future: Future = self.sim.future()

        # Statistics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmissions = 0
        self.dup_acks_total = 0
        # Retransmissions attributed to the mechanism that fired them
        # (sums to ``retransmissions``): RTO expiry (including go-back-N
        # rewinds), dup-ACK fast retransmit, NewReno partial-ACK resend.
        self.retransmits_by_cause: Dict[str, int] = {
            "rto": 0, "fast": 0, "partial_ack": 0,
        }
        sim_registry(self.sim).watch(self, {
            "host": stack.host.name,
            "conn": f"{local_port}-{remote[0]}:{remote[1]}",
        })

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _note_retransmit(self, cause: str, seq: int) -> None:
        self.retransmissions += 1
        self.retransmits_by_cause[cause] += 1
        wr_span(
            self.stack.host, "retransmit", proto="tcp", cause=cause,
            seq=seq, conn=self.local_port,
        )

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _set_state(self, new_state: str) -> None:
        """Sole state mutator after construction; validates the move
        against :data:`TCP_TRANSITIONS` via the shared
        :func:`repro.core.fsm.transition` helper (same-state is a no-op)."""
        _fsm_transition(
            self, "TCP", TCP_TRANSITIONS, new_state, TcpError,
            f" ({self.local_port}<->{self.remote})",
        )

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    def open_active(self) -> Future:
        if self.state != CLOSED:
            raise TcpError(f"open_active in state {self.state}")
        self._set_state(SYN_SENT)
        self._transmit(self.iss, SYN, b"")
        self.snd_nxt = self.iss + 1
        self.snd_max = self.iss + 1
        self._arm_rtx()
        return self.established

    def open_passive(self, syn: TcpSegment) -> None:
        """Transition LISTEN->SYN_RCVD for an arriving SYN (called by the
        stack, which created this connection object for it)."""
        self.irs = syn.seq
        self.rcv_nxt = syn.seq + 1
        self._set_state(SYN_RCVD)
        self._transmit(self.iss, SYN | ACK, b"")
        self.snd_nxt = self.iss + 1
        self.snd_max = self.iss + 1
        self._arm_rtx()

    # ------------------------------------------------------------------
    # Application send / close
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue application bytes (CPU already charged by the socket)."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise TcpError(f"send in state {self.state}")
        if self._fin_queued:
            raise TcpError("send after close")
        if not data:
            return
        self._sndbuf.extend(data)
        self._try_output()

    def close(self) -> None:
        """Half-close: FIN goes out after queued data drains."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, CLOSING, FIN_WAIT_1, FIN_WAIT_2):
            return
        self._fin_queued = True
        if self.state == SYN_SENT:
            self._become_closed()
            return
        self._try_output()

    def abort(self) -> None:
        """Send RST and drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            self._transmit(self.snd_nxt, RST | ACK, b"")
        self._become_closed()

    # ------------------------------------------------------------------
    # Output engine
    # ------------------------------------------------------------------

    def _unsent_bytes(self) -> int:
        return (
            self._snd_base + len(self._sndbuf) - self._snd_head - self.snd_nxt
        )

    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def _try_output(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK):
            return
        # Sequence number just past the buffered data; nothing in the
        # loop appends to or trims the send buffer.
        buffered_end = self._snd_base + len(self._sndbuf) - self._snd_head
        sent = False
        while True:
            unsent = buffered_end - self.snd_nxt
            if unsent <= 0:
                break
            flight = self.snd_nxt - self.snd_una
            allowance = self.cong.send_allowance(flight, self.peer_window)
            if allowance <= 0:
                break
            take = min(unsent, allowance, self.mss)
            off = self._snd_head + self.snd_nxt - self._snd_base
            # One copy, not two: a memoryview slice is zero-copy and
            # bytes() materializes the immutable segment payload.
            payload = bytes(memoryview(self._sndbuf)[off : off + take])
            flags = ACK
            if take == unsent:
                flags |= PSH
            self._transmit(self.snd_nxt, flags, payload)
            self.snd_nxt += take
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            self.bytes_sent += take
            if self._rtt_seq is None:
                self._rtt_seq = self.snd_nxt
                self._rtt_sent_at = self.sim.now
            sent = True
        if sent:
            # One arm for the whole burst: arming per segment would
            # cancel each earlier timer before it could fire, and this
            # arm lands at the same point, with the same now and rto.
            self._arm_rtx()
        # FIN once everything queued has been sent (also re-sent here
        # after a go-back-N rewind, in which case the state already
        # advanced past ESTABLISHED/CLOSE_WAIT).
        if (
            self._fin_queued
            and not self._fin_sent
            and self._unsent_bytes() == 0
            and self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK)
        ):
            self._fin_seq = self.snd_nxt
            self._transmit(self.snd_nxt, FIN | ACK, b"")
            self.snd_nxt += 1
            self.snd_max = max(self.snd_max, self.snd_nxt)
            self._fin_sent = True
            if self.state == ESTABLISHED:
                self._set_state(FIN_WAIT_1)
            elif self.state == CLOSE_WAIT:
                self._set_state(LAST_ACK)
            self._arm_rtx()

    def _transmit(self, seq: int, flags: int, payload: bytes) -> None:
        seg = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote[1],
            seq=seq,
            ack_seq=self.rcv_nxt if flags & ACK else 0,
            flags=flags,
            window=self._advertised_window(),
            payload=payload,
        )
        self.segments_sent += 1
        self._segs_since_ack = 0  # any segment we send carries our ACK
        delack = self._delack_timer
        if delack is not None and delack.armed:
            delack.cancel()
        self.stack.transmit_segment(self, seg)

    def _advertised_window(self) -> int:
        ooo = self._ooo
        pending = sum(map(len, ooo.values())) if ooo else 0
        return max(0, self.rcvbuf_bytes - pending)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_rtx(self) -> None:
        # The handle is kept once made: every later arm moves it.
        if self._rtx_timer is None:
            self._rtx_timer = self.sim.at(
                self.sim.now + self.rto.rto_ns, self._on_rtx_timeout
            )
        else:
            self.sim.rearm(self._rtx_timer, self.sim.now + self.rto.rto_ns)

    def _cancel_rtx(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()

    def _on_rtx_timeout(self) -> None:
        if self.state == CLOSED:
            return
        if self.flight_size() == 0:
            return
        self.cong.on_timeout(self.flight_size())
        self.rto.on_timeout()
        self._rtt_seq = None  # Karn: abandon the in-flight RTT sample
        if self.state in (SYN_SENT, SYN_RCVD) or (
            self._fin_sent and self.snd_una == self._fin_seq
        ):
            # Handshake frames and a lone unacked FIN are single-shot.
            self._retransmit_front("rto")
        else:
            # Go-back-N: rewind to the cumulative-ACK point and let the
            # output engine resend the window forward in slow start —
            # without this, a multi-loss window only heals one MSS per
            # (exponentially backed-off) timeout.
            self._note_retransmit("rto", self.snd_una)
            if self._fin_sent:
                self._fin_sent = False  # FIN re-follows the data
            self.snd_nxt = self.snd_una
            self._try_output()
        self._arm_rtx()

    def _retransmit_front(self, cause: str) -> None:
        """Resend the oldest unacknowledged chunk."""
        self._note_retransmit(cause, self.snd_una)
        if self.state == SYN_SENT:
            self._transmit(self.iss, SYN, b"")
            return
        if self.state == SYN_RCVD:
            self._transmit(self.iss, SYN | ACK, b"")
            return
        if self._fin_sent and self.snd_una == self._fin_seq:
            self._transmit(self._fin_seq, FIN | ACK, b"")
            return
        off = self._snd_head + self.snd_una - self._snd_base
        take = min(self.mss, len(self._sndbuf) - off)
        if take <= 0:
            return
        payload = bytes(memoryview(self._sndbuf)[off : off + take])
        self._transmit(self.snd_una, ACK | PSH, payload)

    # -- delayed ACK -------------------------------------------------------

    # One handle, kept once made and rearmed for each delayed ACK.
    _delack_timer = None
    DELAYED_ACK_NS = 40_000_000  # 40 ms, Linux-like

    def _schedule_ack(self, force: bool) -> None:
        self._segs_since_ack += 1
        if force or self._segs_since_ack >= ACK_EVERY:
            self._send_ack()
            return
        timer = self._delack_timer
        if timer is None:
            self._delack_timer = self.sim.at(
                self.sim.now + self.DELAYED_ACK_NS, self._send_ack
            )
        elif not timer.armed:
            self.sim.rearm(timer, self.sim.now + self.DELAYED_ACK_NS)

    def _send_ack(self) -> None:
        self._cancel_delayed_ack()
        if self.state == CLOSED:
            return
        seg = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote[1],
            seq=self.snd_nxt,
            ack_seq=self.rcv_nxt,
            flags=ACK,
            window=self._advertised_window(),
            payload=b"",
        )
        self.segments_sent += 1
        self._segs_since_ack = 0
        self.stack.transmit_segment(self, seg, pure_ack=True)

    def _cancel_delayed_ack(self) -> None:
        timer = self._delack_timer
        if timer is not None and timer.armed:
            timer.cancel()

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def on_segment(self, seg: TcpSegment) -> None:
        self.segments_received += 1
        flags = seg.flags
        if flags & RST:
            self._become_closed(error=True)
            return
        if self.state == SYN_SENT:
            self._input_syn_sent(seg)
            return
        if self.state == CLOSED:
            return
        # Window update + ACK processing first.
        if flags & ACK:
            self.peer_window = seg.window
            self._process_ack(seg)
            if self.state == CLOSED:
                return
        # SYN retransmission of our peer (SYN_RCVD): re-ack.
        if flags & SYN:
            self._send_ack()
            return
        if seg.payload or flags & FIN:
            self._process_payload(seg)

    def _input_syn_sent(self, seg: TcpSegment) -> None:
        if seg.flags & (SYN | ACK) != SYN | ACK or seg.ack_seq != self.iss + 1:
            return
        self.irs = seg.seq
        self.rcv_nxt = seg.seq + 1
        self.snd_una = seg.ack_seq
        self.peer_window = seg.window
        self._cancel_rtx()
        self._set_state(ESTABLISHED)
        self._send_ack()
        if not self.established.done:
            self.established.set_result(self)
        self._try_output()

    def _process_ack(self, seg: TcpSegment) -> None:
        ack = seg.ack_seq
        if ack > self.snd_max:
            return  # acks data we never sent
        if ack > self.snd_una:
            # After a go-back-N rewind the cumulative ACK can land beyond
            # snd_nxt (it covers data sent before the rewind): fast-forward.
            self.snd_nxt = max(self.snd_nxt, ack)
            newly = ack - self.snd_una
            self.snd_una = ack
            self._dup_acks = 0
            self.rto.reset_backoff()
            # Karn-valid RTT sample?
            if self._rtt_seq is not None and ack >= self._rtt_seq:
                self.rto.sample(self.sim.now - self._rtt_sent_at)
                self._rtt_seq = None
            # Trim the send buffer below snd_una (SYN/FIN consume no
            # buffer).  Advancing the head offset is O(1); the dead
            # prefix is physically freed only once it grows large.
            data_start = max(self._snd_base, self.snd_una)
            trim = min(
                data_start - self._snd_base, len(self._sndbuf) - self._snd_head
            )
            if trim > 0:
                self._snd_head += trim
                self._snd_base += trim
                if self._snd_head >= _SNDBUF_COMPACT:
                    del self._sndbuf[: self._snd_head]
                    self._snd_head = 0
            self.cong.on_ack(newly, self.snd_una)
            if self.cong.in_recovery:
                # NewReno partial ack: the cumulative ACK moved but not
                # past the recovery point, so the next hole starts at the
                # new snd_una — retransmit it now instead of stalling for
                # an RTO (RFC 6582).
                self._retransmit_front("partial_ack")
            if self.snd_nxt == self.snd_una:  # nothing left in flight
                self._cancel_rtx()
            else:
                self._arm_rtx()
            if self.state == SYN_RCVD or self._fin_sent:
                self._handshake_and_fin_acks()
            self._try_output()
        elif (
            ack == self.snd_una
            and not seg.payload
            and not seg.flags & (SYN | FIN)
            and self.flight_size() > 0
        ):
            self._dup_acks += 1
            self.dup_acks_total += 1
            if self._dup_acks == 3:
                if self.cong.on_dup_acks(self.flight_size(), self.snd_nxt):
                    self._retransmit_front("fast")
            elif self._dup_acks > 3:
                self.cong.on_dup_ack_in_recovery()
                self._try_output()

    def _handshake_and_fin_acks(self) -> None:
        if self.state == SYN_RCVD and self.snd_una >= self.iss + 1:
            self._set_state(ESTABLISHED)
            if not self.established.done:
                self.established.set_result(self)
        if self._fin_sent and self._fin_seq is not None and self.snd_una > self._fin_seq:
            if self.state == FIN_WAIT_1:
                self._set_state(FIN_WAIT_2)
            elif self.state == CLOSING:
                self._enter_time_wait()
            elif self.state == LAST_ACK:
                self._become_closed()

    def _process_payload(self, seg: TcpSegment) -> None:
        seq, payload = seg.seq, seg.payload
        fin = bool(seg.flags & FIN)
        # FIN and out-of-order arrivals force an immediate ACK; PSH does
        # not (it affects delivery urgency, not ACK scheduling).
        force_ack = fin
        if seq == self.rcv_nxt:
            if payload:
                self._deliver(payload)
                self.rcv_nxt += len(payload)
            if self._ooo or self._ooo_fin is not None:
                self._drain_ooo()
            if fin and seq + len(payload) == self.rcv_nxt and not self._remote_fin:
                self._remote_fin = True
                self.rcv_nxt += 1
                self._on_remote_fin()
            self._schedule_ack(force=force_ack or bool(self._ooo))
        elif seq > self.rcv_nxt:
            if payload and seq not in self._ooo:
                self._ooo[seq] = payload
            if fin:
                self._ooo_fin = seq + len(payload)
            self._send_ack()  # duplicate ACK for the gap
        else:
            # Old/overlapping data: re-ack so the sender advances.
            overlap = self.rcv_nxt - seq
            if overlap < len(payload):
                self._deliver(payload[overlap:])
                self.rcv_nxt += len(payload) - overlap
                self._drain_ooo()
                self._schedule_ack(force=True)
            else:
                self._send_ack()

    def _drain_ooo(self) -> None:
        while True:
            payload = self._ooo.pop(self.rcv_nxt, None)
            if payload is None:
                if self._ooo_fin == self.rcv_nxt:
                    self._ooo_fin = None
                    self._remote_fin = True
                    self.rcv_nxt += 1
                    self._on_remote_fin()
                return
            if payload:
                self._deliver(payload)
                self.rcv_nxt += len(payload)
            else:
                return

    def _deliver(self, data: bytes) -> None:
        self.bytes_received += len(data)
        self.stack.deliver_to_app(self, data)

    def _on_remote_fin(self) -> None:
        if self.state == ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            self._set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        if self.on_close is not None:
            self.on_close()

    def _enter_time_wait(self) -> None:
        self._set_state(TIME_WAIT)
        self._send_ack()
        # 2*MSL shortened: long enough to ack a retransmitted FIN in-sim.
        self.sim.call_at(self.sim.now + 50_000_000, self._become_closed)

    def _become_closed(self, error: bool = False) -> None:
        if self.state == CLOSED:
            return
        self._set_state(CLOSED)
        self._cancel_rtx()
        self._cancel_delayed_ack()
        self.stack.forget(self)
        if not self.established.done and error:
            self.established.set_result(None)
        if not self.closed_future.done:
            self.closed_future.set_result(error)
        if error and self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConn {self.local_port}<->{self.remote} {self.state} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt}>"
        )
