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
  every arrival) resend the missing message after ``dup_ack_threshold``
  duplicates, so a single drop costs roughly one RTT instead of an RTO.
* **SACK ranges** — ACKs optionally carry up to ``sack_ranges``
  ``(start, end)`` blocks describing out-of-order data already held, so
  the sender never retransmits messages that arrived behind a hole.
* **Failure surfacing** — per-message ``on_result`` callbacks report
  delivery (cumulatively ACKed) or failure (peer declared dead, socket
  closed), which the verbs layer turns into FLUSH_ERR completions
  instead of silently dropping queued data.

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
from .rto import RtoEstimator
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


class _PeerTx:
    """Sender-side state toward one peer."""

    __slots__ = (
        "next_seq", "unacked", "queue", "timer", "sent_at", "rtx", "sacked",
        "retries", "cbs", "estimator", "ack_floor", "dup_acks",
        "fast_rtx_armed", "recover",
    )

    def __init__(self, estimator: RtoEstimator) -> None:
        self.next_seq = 1
        self.unacked: Dict[int, bytes] = {}
        self.queue: Deque[Tuple[bytes, Optional[ResultCallback]]] = deque()
        self.timer = None
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


class _PeerRx:
    """Receiver-side state from one peer."""

    __slots__ = ("rcv_nxt", "ooo", "pending_acks", "ack_timer")

    def __init__(self) -> None:
        self.rcv_nxt = 1
        self.ooo: Dict[int, bytes] = {}
        self.pending_acks = 0   # in-order arrivals not yet acknowledged
        self.ack_timer = None   # pending-ACK flush timer (batched mode)


class RudpSocket:
    """Reliable, ordered, message-preserving endpoint over a UdpSocket.

    One RudpSocket can converse with many peers (per-peer sequence
    spaces), matching how a datagram QP serves many remote endpoints.

    ``rto_ns`` seeds the per-peer estimator (it is the timeout used
    before the first RTT sample lands).  With ``adaptive=False`` the
    socket degrades to the original fixed-RTO design — no estimator, no
    backoff, no fast retransmit, no SACK — kept as the baseline the
    robustness benchmarks compare against.

    ``ack_every`` > 1 batches acknowledgements: in-order arrivals are
    acknowledged once per ``ack_every`` datagrams (or after
    ``ack_delay_ns``, whichever comes first — one pending-ACK timer per
    peer, not one per datagram), while anything anomalous — a gap, a
    duplicate, out-of-order data — still flushes an ACK immediately so
    fast retransmit and SACK recovery keep their one-ACK-per-anomaly
    timing.  Timer-fired ACKs echo sequence 0, which never produces an
    RTT sample (the delay would otherwise contaminate SRTT).  The
    default of 1 is the paper's ack-every-arrival behaviour.
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
        sack_ranges: int = 3,
        dup_ack_threshold: int = 3,
        ack_every: int = 1,
        ack_delay_ns: int = 100 * US,
    ):
        if window_msgs < 1:
            raise RudpError("window must be at least 1 message")
        if ack_every < 1:
            raise RudpError("ack_every must be at least 1")
        if ack_delay_ns <= 0:
            raise RudpError("ack_delay_ns must be positive")
        self.udp = udp
        self.sim: Simulator = udp.stack.sim
        self.window_msgs = window_msgs
        self.rto_ns = rto_ns
        self.max_retries = max_retries
        self.adaptive = adaptive
        self.min_rto_ns = min(min_rto_ns, rto_ns)
        self.max_rto_ns = max(max_rto_ns, rto_ns)
        self.sack_ranges = min(sack_ranges, SACK_RANGES_MAX) if adaptive else 0
        self.dup_ack_threshold = dup_ack_threshold if adaptive else 0
        # The fixed-RTO baseline predates delayed ACKs; it keeps the
        # original ack-every-arrival behaviour regardless of ack_every.
        self.ack_every = ack_every if adaptive else 1
        self.ack_delay_ns = ack_delay_ns
        self.closed = False
        self._tx: Dict[Address, _PeerTx] = {}
        self._rx: Dict[Address, _PeerRx] = {}
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

    def _new_estimator(self) -> RtoEstimator:
        return RtoEstimator(
            initial_rto_ns=self.rto_ns,
            min_rto_ns=self.min_rto_ns,
            max_rto_ns=self.max_rto_ns,
        )

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
            tx = self._tx.setdefault(addr, _PeerTx(self._new_estimator()))
        # Snapshot mutable buffers so later caller-side writes can't
        # alias into the retransmission store; immutable bytes are
        # enqueued as-is (bytes(data) on bytes would copy for nothing).
        if not isinstance(data, bytes):
            data = bytes(data)
        tx.queue.append((data, on_result))
        self._pump(addr, tx)

    def _pump(self, addr: Address, tx: _PeerTx) -> None:
        while tx.queue and len(tx.unacked) < self.window_msgs:
            data, cb = tx.queue.popleft()
            seq = tx.next_seq
            tx.next_seq += 1
            tx.unacked[seq] = data
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
        # The handle is kept once made: every later arm moves it.
        due = self.sim.now + self._current_rto(tx)
        if tx.timer is None:
            tx.timer = self.sim.at(due, self._on_timeout, addr)
        else:
            self.sim.rearm(tx.timer, due, addr)

    def _on_timeout(self, addr: Address) -> None:
        tx = self._tx.get(addr)
        if tx is None or not tx.unacked:
            return
        # Retransmit the earliest message the peer has not SACKed; fall
        # back to the overall earliest (an all-SACKed window means the
        # cumulative ACKs themselves were lost — provoke a fresh one).
        unsacked = [s for s in tx.unacked if s not in tx.sacked]
        seq = min(unsacked) if unsacked else min(tx.unacked)
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

    def _fail_peer(self, addr: Address, tx: _PeerTx) -> None:
        """Peer unreachable: drop all state toward it and notify — every
        queued or in-flight message is reported failed, never silently
        discarded."""
        if tx.timer is not None:
            tx.timer.cancel()
        del self._tx[addr]
        self.peer_failures += 1
        callbacks: List[ResultCallback] = []
        for seq in sorted(tx.unacked):
            cb = tx.cbs.get(seq)
            if cb is not None:
                callbacks.append(cb)
        for _, cb in tx.queue:
            if cb is not None:
                callbacks.append(cb)
        self.messages_failed += len(tx.unacked) + len(tx.queue)
        tx.unacked.clear()
        tx.queue.clear()
        tx.cbs.clear()
        for cb in callbacks:
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
        for start, end in sacks:
            self.sack_blocks_received += 1
            for seq in tx.unacked:
                if start <= seq <= end:
                    tx.sacked.add(seq)
        newly_acked = sorted([s for s in tx.unacked if s < ack_seq])
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
        self, src: Address, tx: _PeerTx, ack_seq: int, newly_acked: List[int]
    ) -> None:
        callbacks: List[ResultCallback] = []
        for seq in newly_acked:
            del tx.unacked[seq]
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
            self.dup_ack_threshold > 0
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
        elif tx.timer is not None:
            tx.timer.cancel()
        for cb in callbacks:
            cb(True)

    def _on_dup_ack(self, src: Address, tx: _PeerTx, ack_seq: int) -> None:
        """The peer re-asserted its cumulative point: something after it
        arrived while ``ack_seq`` is still missing."""
        if self.dup_ack_threshold <= 0:
            return
        tx.dup_acks += 1
        if not tx.fast_rtx_armed or tx.dup_acks < self.dup_ack_threshold:
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
        for seq in sorted(tx.unacked):
            if seq > horizon or seq in tx.sacked:
                continue
            tx.rtx.add(seq)
            # The dup-ACK-named hole is the classic fast retransmit; the
            # other holes are inferred from SACK coverage.
            self._retransmit(src, tx, seq, "fast" if seq == missing else "sack")
        self._arm_timer(src, tx)

    def _on_data(self, seq: int, payload: bytes, src: Address) -> None:
        rx = self._rx.setdefault(src, _PeerRx())
        anomaly = True
        if seq < rx.rcv_nxt or seq in rx.ooo:
            self.duplicates_dropped += 1
        elif seq == rx.rcv_nxt:
            rx.rcv_nxt += 1
            self._deliver(payload, src)
            while rx.rcv_nxt in rx.ooo:
                self._deliver(rx.ooo.pop(rx.rcv_nxt), src)
                rx.rcv_nxt += 1
            # Clean in-order progress (no gap still parked) may be
            # acknowledged lazily; everything else must flush now so the
            # sender's dup-ACK/SACK machinery sees each anomaly.
            anomaly = bool(rx.ooo)
        else:
            rx.ooo[seq] = payload
        rx.pending_acks += 1
        if anomaly or rx.pending_acks >= self.ack_every:
            # Ack with the cumulative in-order point, echoing the seq
            # that triggered this ACK (plus SACK ranges for whatever is
            # parked out of order).
            self._flush_ack(rx, src, seq)
        elif rx.ack_timer is None:
            rx.ack_timer = self.sim.at(
                self.sim.now + self.ack_delay_ns, self._on_ack_timer, src
            )
        elif not rx.ack_timer.armed:
            self.sim.rearm(rx.ack_timer, self.sim.now + self.ack_delay_ns, src)

    def _on_ack_timer(self, src: Address) -> None:
        """Pending-ACK timer: acknowledge whatever arrived in-order since
        the last ACK.  Echoes seq 0 — never a valid trigger — so the
        sender takes no RTT sample from a deliberately delayed ACK."""
        rx = self._rx.get(src)
        if rx is not None and rx.pending_acks:
            self._flush_ack(rx, src, 0)

    def _ooo_ranges(self, rx: _PeerRx) -> List[Tuple[int, int]]:
        """First ``sack_ranges`` contiguous runs of out-of-order data."""
        if not self.sack_ranges or not rx.ooo:
            return []
        seqs = sorted(rx.ooo)
        ranges: List[Tuple[int, int]] = []
        start = prev = seqs[0]
        for s in seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            ranges.append((start, prev))
            if len(ranges) >= self.sack_ranges:
                return ranges
            start = prev = s
        ranges.append((start, prev))
        return ranges[: self.sack_ranges]

    def _flush_ack(self, rx: _PeerRx, src: Address, trigger_seq: int) -> None:
        if rx.ack_timer is not None and rx.ack_timer.armed:
            rx.ack_timer.cancel()
        rx.pending_acks = 0
        self.acks_sent += 1
        ranges = self._ooo_ranges(rx) if rx.ooo else []
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
        callbacks: List[ResultCallback] = []
        for tx in self._tx.values():
            if tx.timer is not None:
                tx.timer.cancel()
            for seq in sorted(tx.unacked):
                cb = tx.cbs.get(seq)
                if cb is not None:
                    callbacks.append(cb)
            for _, cb in tx.queue:
                if cb is not None:
                    callbacks.append(cb)
            self.messages_failed += len(tx.unacked) + len(tx.queue)
            tx.unacked.clear()
            tx.queue.clear()
            tx.cbs.clear()
        self._tx.clear()
        for rx in self._rx.values():
            if rx.ack_timer is not None:
                rx.ack_timer.cancel()
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
