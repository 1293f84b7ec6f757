"""Reliable UDP: the Reliable Datagram (RD) lower layer.

The paper's design is explicitly dual-mode: unreliable datagrams for
loss-tolerant applications, and "a reliability mechanism (like reliable
UDP) for those applications that cannot deal with data loss" (§I), with
RD LLPs expected to provide order and reliability guarantees (§IV.B
item 3).  This module supplies that LLP: a message-oriented sliding
window over UDP with cumulative ACKs, in-order delivery, and
retransmission — but none of TCP's stream semantics, so message
boundaries survive and the MPA layer stays bypassed.

Loss recovery is the part RDMA transports live or die by, so it is done
properly rather than minimally:

* **Adaptive RTO** — a per-peer RFC 6298 estimator
  (:class:`~repro.transport.rto.RtoEstimator`) replaces any fixed
  timeout; every ACK echoes the sequence number whose arrival produced
  it, so RTT samples never fold in head-of-line stalls, Karn's rule is
  applied (retransmitted sequence numbers never produce samples) and
  expiries back off exponentially with a cap.
* **Fast retransmit** — duplicate cumulative ACKs (the receiver acks
  every arrival) resend the missing message after
  :data:`DUP_ACK_THRESHOLD` duplicates, so a single drop costs roughly
  one RTT instead of an RTO.
* **SACK ranges** — ACKs carry up to :data:`SACK_RANGES` ``(start,
  end)`` blocks describing out-of-order data already held, so the
  sender never retransmits messages that arrived behind a hole.
* **Failure surfacing** — per-message ``on_result`` callbacks report
  delivery (cumulatively ACKed) or failure (peer declared dead, socket
  closed), which the verbs layer turns into FLUSH_ERR completions
  instead of silently dropping queued data.

The window itself is the core in :mod:`repro.transport.rto` that SCTP
drives too; this module adds the header and the recovery policy.

Headers are genuinely encoded into the datagram bytes (struct-packed),
so tests exercise real parsing, and the 9-byte header participates in
wire sizing.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..obs import sim_registry, wr_span
from ..simnet.engine import MS, SEC, US, Future, Simulator
from .rto import BEYOND, DUPLICATE, IN_ORDER, ReceiveWindow, RtoEstimator, SendWindow
from .udp import UDP_MAX_PAYLOAD, UdpSocket

Address = Tuple[int, int]

_HEADER = struct.Struct("!BQ")  # kind, sequence number
_ACK_ECHO = struct.Struct("!Q")  # seq whose arrival triggered this ACK
_SACK_RANGE = struct.Struct("!QQ")  # inclusive [start, end] sequence range
# Precomputed fast path for the overwhelmingly common ACK shape — no
# SACK ranges — packing header and echo in one call.  The bytes are
# identical to _HEADER.pack(...) + _ACK_ECHO.pack(...).
_ACK_NOSACK = struct.Struct("!BQQ")  # kind, cumulative seq, echo seq
KIND_DATA = 1
KIND_ACK = 2

RUDP_HEADER = _HEADER.size  # 9 bytes
RUDP_MAX_PAYLOAD = UDP_MAX_PAYLOAD - RUDP_HEADER

#: SACK range count travels in one byte, capping ranges per ACK.
SACK_RANGES_MAX = 255

#: Parked runs each ACK reports, and duplicate ACKs that trigger a fast
#: retransmit (adaptive mode; the fixed-RTO baseline uses neither).
SACK_RANGES = 3
DUP_ACK_THRESHOLD = 3


def encode_ack(
    cum_seq: int, echo_seq: int, ranges: List[Tuple[int, int]]
) -> bytes:
    """Encode a complete ACK datagram (header included).

    Wire layout: ``!BQ`` header (KIND_ACK, cumulative seq), ``!Q`` echo
    seq, then — only when present — a count byte followed by ``!QQ``
    inclusive SACK pairs.
    """
    if not ranges:
        return _ACK_NOSACK.pack(KIND_ACK, cum_seq, echo_seq)
    if len(ranges) > SACK_RANGES_MAX:
        raise RudpError(f"{len(ranges)} SACK ranges exceed the count byte")
    return (
        _ACK_NOSACK.pack(KIND_ACK, cum_seq, echo_seq)
        + bytes([len(ranges)])
        + b"".join(_SACK_RANGE.pack(s, e) for s, e in ranges)
    )


def decode_ack_payload(payload: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    """Decode an ACK payload (everything after the ``!BQ`` header) into
    ``(echo_seq, sack_ranges)``.  Truncated trailing ranges are dropped;
    inverted ranges (start > end) are ignored."""
    n = len(payload)
    if n < 8:
        return 0, []
    if n == 8:  # no SACK block — the common case, one unpack, no slicing
        return _ACK_ECHO.unpack(payload)[0], []
    (echo,) = _ACK_ECHO.unpack_from(payload)
    count = payload[8]
    ranges: List[Tuple[int, int]] = []
    offset = 9
    for _ in range(count):
        if offset + 16 > n:
            break  # truncated: use what parsed cleanly
        start, end = _SACK_RANGE.unpack_from(payload, offset)
        offset += 16
        if start <= end:
            ranges.append((start, end))
    return echo, ranges

#: RD runs on a LAN fabric: the RTO floor is far below TCP's 200 ms
#: (which would be ruinous next to microsecond RTTs) but still well
#: above any observed RTT plus its variance.
RD_MIN_RTO_NS = 200 * US
RD_MAX_RTO_NS = 2 * SEC

ResultCallback = Callable[[bool], None]


class RudpError(Exception):
    """Reliable-UDP usage errors."""


class _PeerTx(SendWindow):
    """Sender-side state toward one peer: the shared send window plus
    the queue beyond it and this transport's recovery bookkeeping."""

    __slots__ = (
        "queue", "sent_at", "rtx", "sacked", "retries", "cbs", "estimator",
        "ack_floor", "dup_acks", "fast_rtx_armed", "recover",
    )

    def __init__(self, limit: int, estimator: RtoEstimator) -> None:
        super().__init__(limit)
        self.queue: Deque[Tuple[bytes, Optional[ResultCallback]]] = deque()
        self.sent_at: Dict[int, int] = {}       # first-transmission time
        self.rtx: Set[int] = set()              # retransmitted (Karn: no samples)
        self.sacked: Set[int] = set()           # held by the peer beyond a hole
        self.retries: Dict[int, int] = {}
        self.cbs: Dict[int, Optional[ResultCallback]] = {}
        self.estimator = estimator
        self.ack_floor = 1                      # highest cumulative ACK seen
        self.dup_acks = 0
        self.fast_rtx_armed = True              # one fast rtx per loss event
        self.recover = 0                        # NewReno recovery horizon


class RudpSocket:
    """Reliable, ordered, message-preserving endpoint over a UdpSocket.

    One RudpSocket can converse with many peers (per-peer sequence
    spaces), matching how a datagram QP serves many remote endpoints.

    ``window_msgs`` bounds both each peer's send window and the
    out-of-order data held from each peer.  ``rto_ns`` seeds the
    per-peer estimator (it is the timeout used before the first RTT
    sample lands).  With ``adaptive=False`` the socket degrades to the
    original fixed-RTO design — no estimator, no backoff, no fast
    retransmit, no SACK — kept as the baseline the robustness
    benchmarks compare against.  Every arrival is acknowledged at once.
    """

    #: Exported series (see :mod:`repro.obs.metrics`), labelled
    #: host/port; the unlabelled rows are also :meth:`stats`.
    METRICS = (
        ("transport.rudp.retransmissions", "counter", "retransmissions"),
        ("transport.rudp.fast_retransmits", "counter", "fast_retransmits"),
        ("transport.rudp.timeouts", "counter", "timeouts"),
        ("transport.rudp.backoff_events", "counter", "backoff_events"),
        ("transport.rudp.rto_samples", "counter", "rto_samples"),
        ("transport.rudp.sack_blocks_received", "counter", "sack_blocks_received"),
        ("transport.rudp.duplicates_dropped", "counter", "duplicates_dropped"),
        ("transport.rudp.out_of_window_drops", "counter", "out_of_window_drops"),
        ("transport.rudp.acks_sent", "counter", "acks_sent"),
        ("transport.rudp.peer_failures", "counter", "peer_failures"),
        ("transport.rudp.messages_failed", "counter", "messages_failed"),
        ("transport.rudp.retransmits", "counter", "retransmits_by_cause", "cause"),
    )

    def __init__(
        self,
        udp: UdpSocket,
        window_msgs: int = 64,
        rto_ns: int = 5 * MS,
        max_retries: int = 20,
        adaptive: bool = True,
        min_rto_ns: int = RD_MIN_RTO_NS,
        max_rto_ns: int = RD_MAX_RTO_NS,
    ):
        if window_msgs < 1:
            raise RudpError("window must be at least 1 message")
        self.udp = udp
        self.sim: Simulator = udp.stack.sim
        self.window_msgs = window_msgs
        self.rto_ns = rto_ns
        self.max_retries = max_retries
        self.adaptive = adaptive
        self.min_rto_ns = min(min_rto_ns, rto_ns)
        self.max_rto_ns = max(max_rto_ns, rto_ns)
        self.closed = False
        self._tx: Dict[Address, _PeerTx] = {}
        self._rx: Dict[Address, ReceiveWindow] = {}
        self.on_message: Optional[Callable[[bytes, Address], None]] = None
        self.on_peer_failed: Optional[Callable[[Address], None]] = None
        self._queue: Deque[Tuple[bytes, Address]] = deque()
        self._waiters: Deque[Future] = deque()
        udp.on_datagram = self._on_datagram
        # Statistics (aggregate across peers).
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.backoff_events = 0
        self.rto_samples = 0
        self.sack_blocks_received = 0
        self.duplicates_dropped = 0
        self.out_of_window_drops = 0
        self.acks_sent = 0
        self.peer_failures = 0
        self.messages_failed = 0
        # Every retransmission attributed to the mechanism that fired it:
        # RTO expiry, fast retransmit (the dup-ACK-triggered hole), the
        # extra SACK-inferred hole resends in the same recovery round, or
        # a NewReno partial-ACK resend.  Sums to ``retransmissions``.
        self.retransmits_by_cause: Dict[str, int] = {
            "rto": 0, "fast": 0, "sack": 0, "partial_ack": 0,
        }
        self.host = udp.stack.host
        sim_registry(self.sim).watch(self, {"host": self.host.name, "port": self.port})

    @property
    def port(self) -> int:
        return self.udp.port

    # -- send ------------------------------------------------------------

    def sendto(
        self,
        data: bytes,
        addr: Address,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        """Reliably send one message (delivered exactly once, in order).

        ``on_result`` (optional) fires exactly once: ``True`` when the
        message is cumulatively acknowledged, ``False`` if the peer is
        declared unreachable or the socket closes first.
        """
        if self.closed:
            raise RudpError("socket is closed")
        if len(data) > RUDP_MAX_PAYLOAD:
            raise RudpError(
                f"{len(data)} bytes exceeds RUDP maximum {RUDP_MAX_PAYLOAD}"
            )
        tx = self._tx.get(addr)
        if tx is None:
            estimator = RtoEstimator(self.rto_ns, self.min_rto_ns, self.max_rto_ns)
            tx = self._tx[addr] = _PeerTx(self.window_msgs, estimator)
        # Snapshot mutable buffers so later caller-side writes can't
        # alias into the retransmission store; immutable bytes are
        # enqueued as-is (bytes(data) on bytes would copy for nothing).
        if not isinstance(data, bytes):
            data = bytes(data)
        tx.queue.append((data, on_result))
        self._pump(addr, tx)

    def _pump(self, addr: Address, tx: _PeerTx) -> None:
        while tx.queue and len(tx.unacked) < tx.limit:
            data, cb = tx.queue.popleft()
            seq = tx.push(data)
            tx.cbs[seq] = cb
            tx.sent_at[seq] = self.sim.now
            self._emit(addr, seq, data)
        if tx.unacked and (tx.timer is None or not tx.timer.armed):
            self._arm_timer(addr, tx)

    def _emit(self, addr: Address, seq: int, data: bytes) -> None:
        self.udp.sendto(_HEADER.pack(KIND_DATA, seq) + data, addr)

    def _current_rto(self, tx: _PeerTx) -> int:
        return tx.estimator.rto_ns if self.adaptive else self.rto_ns

    def _arm_timer(self, addr: Address, tx: _PeerTx) -> None:
        tx.arm(self.sim, self.sim.now + self._current_rto(tx), self._on_timeout, addr)

    def _on_timeout(self, addr: Address) -> None:
        tx = self._tx.get(addr)
        if tx is None or not tx.unacked:
            return
        # Retransmit the earliest message the peer has not SACKed; fall
        # back to the overall earliest (an all-SACKed window means the
        # cumulative ACKs themselves were lost — provoke a fresh one).
        seq = next((s for s in tx.unacked if s not in tx.sacked), tx.lowest)
        retries = tx.retries.get(seq, 0) + 1
        if retries > self.max_retries:
            self._fail_peer(addr, tx)
            return
        tx.retries[seq] = retries
        tx.rtx.add(seq)
        self.timeouts += 1
        if self.adaptive:
            tx.estimator.on_timeout()
            self.backoff_events += 1
        self._retransmit(addr, tx, seq, "rto")
        self._arm_timer(addr, tx)

    def _retransmit(self, addr: Address, tx: _PeerTx, seq: int, cause: str) -> None:
        self.retransmissions += 1
        self.retransmits_by_cause[cause] += 1
        wr_span(
            self.host, "retransmit", proto="rudp", cause=cause,
            seq=seq, port=self.port, peer=addr,
        )
        self._emit(addr, seq, tx.unacked[seq])

    def _fail_all(self, tx: _PeerTx) -> List[ResultCallback]:
        """Stop ``tx``'s timer and count every in-flight and queued
        message failed; returns their callbacks, oldest first."""
        tx.stop()
        self.messages_failed += len(tx.unacked) + len(tx.queue)
        return [cb for cb in tx.cbs.values() if cb is not None] + [
            cb for _, cb in tx.queue if cb is not None
        ]

    def _fail_peer(self, addr: Address, tx: _PeerTx) -> None:
        """Peer unreachable: drop all state toward it and notify — every
        queued or in-flight message is reported failed, never silently
        discarded."""
        del self._tx[addr]
        self.peer_failures += 1
        for cb in self._fail_all(tx):
            cb(False)
        if self.on_peer_failed is not None:
            self.on_peer_failed(addr)

    # -- receive -------------------------------------------------------------

    def _on_datagram(self, data: bytes, src: Address) -> None:
        if len(data) < RUDP_HEADER:
            return
        kind, seq = _HEADER.unpack_from(data)
        if kind == KIND_ACK:
            self._on_ack(seq, data[RUDP_HEADER:], src)
        elif kind == KIND_DATA:
            self._on_data(seq, data[RUDP_HEADER:], src)

    def _on_ack(self, ack_seq: int, payload: bytes, src: Address) -> None:
        """Cumulative: acknowledges every sequence number < ack_seq.
        The payload carries the triggering seq (the RTT echo) plus SACK
        ranges for out-of-order data the peer is already holding."""
        tx = self._tx.get(src)
        if tx is None:
            return
        echo, sacks = decode_ack_payload(payload)
        # RTT sampling uses ONLY the echo: the receiver says exactly
        # which segment's arrival produced this ACK, so the sample never
        # includes reordering stalls — and Karn's rule (no samples from
        # retransmitted seqs) still applies.  Anything subtler (sampling
        # on cumulative advance or on SACK receipt) turns out to fold
        # head-of-line waiting time into SRTT under sustained loss and
        # drives the RTO toward its cap.
        if (
            self.adaptive
            and echo in tx.sent_at
            and echo not in tx.rtx
        ):
            tx.estimator.sample(self.sim.now - tx.sent_at[echo])
            self.rto_samples += 1
        # Both walks stay inside the window, whatever spans the peer names.
        if sacks:
            lowest = tx.lowest
            for start, end in sacks:
                self.sack_blocks_received += 1
                tx.sacked.update(range(max(start, lowest), min(end + 1, tx.next_seq)))
        newly_acked = tx.ack(ack_seq)
        if newly_acked:
            self._on_ack_progress(src, tx, ack_seq, newly_acked)
        elif ack_seq == tx.ack_floor and tx.unacked:
            # A duplicate ACK is a re-assertion of the *current*
            # cumulative point (RFC 5681); a stale ACK reordered from
            # before the window advanced (ack_seq < floor) says nothing
            # about the current hole and must not count toward fast
            # retransmit.
            self._on_dup_ack(src, tx, ack_seq)
        self._pump(src, tx)

    def _on_ack_progress(
        self, src: Address, tx: _PeerTx, ack_seq: int, newly_acked: range
    ) -> None:
        callbacks: List[ResultCallback] = []
        for seq in newly_acked:
            tx.sent_at.pop(seq, None)
            tx.retries.pop(seq, None)
            tx.rtx.discard(seq)
            tx.sacked.discard(seq)
            cb = tx.cbs.pop(seq, None)
            if cb is not None:
                callbacks.append(cb)
        tx.ack_floor = max(tx.ack_floor, ack_seq)
        tx.dup_acks = 0
        if ack_seq > tx.recover:
            # Recovery (if any) is over: re-arm the fast-retransmit path.
            tx.fast_rtx_armed = True
        elif (
            self.adaptive
            and ack_seq in tx.unacked
            and ack_seq not in tx.sacked
        ):
            # NewReno partial ack: progress inside the recovery window
            # stopped at a fresh hole — one of the recovery
            # retransmissions was itself lost.  Resend it immediately
            # rather than waiting for a (backed-off) timeout.
            tx.rtx.add(ack_seq)
            self._retransmit(src, tx, ack_seq, "partial_ack")
        if self.adaptive:
            tx.estimator.reset_backoff()
        if tx.unacked:
            self._arm_timer(src, tx)
        else:
            tx.stop()
        for cb in callbacks:
            cb(True)

    def _on_dup_ack(self, src: Address, tx: _PeerTx, ack_seq: int) -> None:
        """The peer re-asserted its cumulative point: something after it
        arrived while ``ack_seq`` is still missing."""
        if not self.adaptive:
            return
        tx.dup_acks += 1
        if not tx.fast_rtx_armed or tx.dup_acks < DUP_ACK_THRESHOLD:
            return
        missing = ack_seq
        if missing not in tx.unacked or missing in tx.sacked:
            return
        tx.fast_rtx_armed = False  # once per loss event, like NewReno
        tx.recover = tx.next_seq - 1  # recovery covers everything sent so far
        self.fast_retransmits += 1
        # SACK-based recovery: resend every inferred hole — any unacked,
        # unSACKed seq below something the peer does hold — in one RTT,
        # not one hole per (backed-off) timeout.
        horizon = max(tx.sacked, default=missing)
        for seq in tx.unacked:
            if seq > horizon:
                break
            if seq in tx.sacked:
                continue
            tx.rtx.add(seq)
            # The dup-ACK-named hole is the classic fast retransmit; the
            # other holes are inferred from SACK coverage.
            self._retransmit(src, tx, seq, "fast" if seq == missing else "sack")
        self._arm_timer(src, tx)

    def _on_data(self, seq: int, payload: bytes, src: Address) -> None:
        rx = self._rx.get(src)
        if rx is None:
            rx = self._rx[src] = ReceiveWindow(self.window_msgs)
        verdict = rx.arrive(seq, payload)
        if verdict == IN_ORDER:
            self._deliver(payload, src)
            if rx.parked:
                for data in rx.drain():
                    self._deliver(data, src)
        elif verdict == DUPLICATE:
            self.duplicates_dropped += 1
        elif verdict == BEYOND:
            # Beyond our own window, where a sender using the same window
            # never reaches.  Dropped unacknowledged.
            self.out_of_window_drops += 1
            return
        # Ack with the cumulative in-order point, echoing the seq that
        # triggered this ACK (plus SACK ranges for whatever is parked).
        self._flush_ack(rx, src, seq)

    def _flush_ack(self, rx: ReceiveWindow, src: Address, trigger_seq: int) -> None:
        self.acks_sent += 1
        ranges = rx.runs(SACK_RANGES) if rx.parked and self.adaptive else []
        self.udp.sendto(encode_ack(rx.rcv_nxt, trigger_seq, ranges), src)

    def _deliver(self, data: bytes, src: Address) -> None:
        if self.on_message is not None:
            self.on_message(data, src)
        elif self._waiters:
            self._waiters.popleft().set_result((data, src))
        else:
            self._queue.append((data, src))

    def recv_future(self) -> Future:
        """Future resolving to ``(data, src)`` — or ``None`` if the
        socket closes before anything arrives."""
        fut = self.sim.future()
        if self._queue:
            fut.set_result(self._queue.popleft())
        elif self.closed:
            fut.set_result(None)
        else:
            self._waiters.append(fut)
        return fut

    # -- introspection ----------------------------------------------------

    def unacked_messages(self, addr: Address) -> int:
        tx = self._tx.get(addr)
        return len(tx.unacked) if tx else 0

    def current_rto_ns(self, addr: Address) -> int:
        """The retransmission timeout currently in force toward a peer."""
        tx = self._tx.get(addr)
        return self._current_rto(tx) if tx else self.rto_ns

    def stats(self) -> Dict[str, int]:
        """Aggregate reliability counters (all peers): the unlabelled
        :attr:`METRICS` fields."""
        return {row[2]: getattr(self, row[2]) for row in self.METRICS if len(row) == 3}

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Tear the endpoint down: cancel timers, fail every in-flight
        and queued message, wake pending receivers (with ``None``), and
        detach from the UDP socket before closing it."""
        if self.closed:
            return
        self.closed = True
        callbacks = [cb for tx in self._tx.values() for cb in self._fail_all(tx)]
        self._tx.clear()
        # Detach before failing callbacks: nothing may re-enter a closed
        # socket through a stale UDP delivery path.
        if self.udp.on_datagram == self._on_datagram:
            self.udp.on_datagram = None
        for cb in callbacks:
            cb(False)
        waiters, self._waiters = self._waiters, deque()
        for fut in waiters:
            if not fut.done:
                fut.set_result(None)
        self.udp.close()
