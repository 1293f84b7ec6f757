"""SCTP-lite: the standard's *other* lower-layer protocol.

iWARP is "defined over either TCP or SCTP protocols" (§II), and the
paper repeatedly contrasts the two: SCTP "also has defined message
boundaries, but it provides even more features than those in TCP and
consequently is more complicated" (§IV.A).  This module implements the
subset that matters for iWARP-over-SCTP (RFC 5043's picture):

* four-way association establishment (INIT / INIT-ACK / COOKIE-ECHO /
  COOKIE-ACK) — the cookie mechanism is modelled, not cryptographic;
* reliable, **message-boundary-preserving** DATA transfer with per-
  message TSNs, cumulative SACKs with a gap report, fast retransmit on
  repeated gap reports, RTO retransmission with go-back semantics, and
  Reno congestion control (reusing the TCP implementation's machinery);
  the TSN space is the send/receive window core RD shares
  (:mod:`repro.transport.rto`), bounded at :data:`SCTP_WINDOW_MSGS`;
* ordered delivery (one stream — iWARP uses a single SCTP stream);
* the packet checksum (zlib's CRC-32 stands in for CRC32c) over each
  DATA payload: a chunk that fails it is dropped unacknowledged and
  repaired like a loss, since no DDP CRC sits above it;
* graceful SHUTDOWN.

Deliberate subset: user messages must fit one MTU (no SCTP-level
fragmentation) — iWARP's DDP layer segments to MULPDU first, so this
never binds in practice; multi-homing, multiple streams, and unordered
delivery are out of scope.  Because SCTP preserves message boundaries,
iWARP over SCTP **needs no MPA layer** — no markers, no stream framing —
which is exactly the ablation `benchmarks/bench_ablations.py` runs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, FrozenSet, Optional, Tuple
from zlib import crc32

from ..core.fsm import pair_table, transition as _fsm_transition
from ..obs import sim_registry
from ..simnet.engine import Future, Simulator
from ..simnet.host import Host
from .ip import IpStack
from .listener import Listener
from .tcp.congestion import RenoCongestion
from .rto import BEYOND, IN_ORDER, ReceiveWindow, RtoEstimator, SendWindow

Address = Tuple[int, int]

SCTP_COMMON_HEADER = 12
DATA_CHUNK_HEADER = 16
SACK_CHUNK_SIZE = 20
CONTROL_CHUNK_SIZE = 20

#: Messages in flight per direction, and so the out-of-order TSNs a
#: receiver parks.  Honest runs peak far below it (1,514 unacked TSNs in
#: the TCP-vs-SCTP ablation's bulk run), so only a hostile peer reaches it.
SCTP_WINDOW_MSGS = 4096

#: Cookies a stack holds issued but not yet echoed; past it the oldest
#: is evicted.  An honest peer echoes its cookie one round trip after
#: the INIT, so a listener holds about one per handshake in progress;
#: only an INIT spray reaches the cap.
SCTP_MAX_COOKIES = 1024

# Chunk types.
CH_DATA = "DATA"
CH_INIT = "INIT"
CH_INIT_ACK = "INIT_ACK"
CH_COOKIE_ECHO = "COOKIE_ECHO"
CH_COOKIE_ACK = "COOKIE_ACK"
CH_SACK = "SACK"
CH_SHUTDOWN = "SHUTDOWN"
CH_SHUTDOWN_ACK = "SHUTDOWN_ACK"
CH_ABORT = "ABORT"

# Association states.
CLOSED = "CLOSED"
COOKIE_WAIT = "COOKIE_WAIT"
COOKIE_ECHOED = "COOKIE_ECHOED"
ESTABLISHED = "ESTABLISHED"
SHUTDOWN_SENT = "SHUTDOWN_SENT"

#: The association machine, declared once: ``(state, event) -> state``
#: (RFC 4960 four-way handshake subset, arc labels from the RFC).  A
#: passive endpoint keeps no TCB before a valid COOKIE ECHO, so
#: ``cookie_echo`` legitimately jumps CLOSED -> ESTABLISHED; from
#: COOKIE_WAIT it covers INIT collisions.  ``abort`` covers an ABORT
#: chunk in either direction; ``peer_shutdown`` is the three-chunk
#: teardown seen from the passive side.
SCTP_EVENT_TRANSITIONS: Dict[Tuple[str, str], str] = {
    (CLOSED, "active_open"): COOKIE_WAIT,
    (CLOSED, "cookie_echo"): ESTABLISHED,
    (COOKIE_WAIT, "init_ack"): COOKIE_ECHOED,
    (COOKIE_WAIT, "cookie_echo"): ESTABLISHED,
    (COOKIE_WAIT, "abort"): CLOSED,
    (COOKIE_ECHOED, "cookie_ack"): ESTABLISHED,
    (COOKIE_ECHOED, "abort"): CLOSED,
    (ESTABLISHED, "shutdown"): SHUTDOWN_SENT,
    (ESTABLISHED, "peer_shutdown"): CLOSED,
    (ESTABLISHED, "abort"): CLOSED,
    (SHUTDOWN_SENT, "shutdown_ack"): CLOSED,
}

#: Legal ``(from, to)`` moves, the projection ``_set_state`` enforces.
SCTP_TRANSITIONS: Dict[str, FrozenSet[str]] = pair_table(SCTP_EVENT_TRANSITIONS)


def _ports(assoc: "SctpAssociation") -> str:
    """The error detail of an illegal move (built only on that path)."""
    return f" ({assoc.local_port}<->{assoc.remote})"


class SctpError(Exception):
    """Association-level failures and API misuse."""


@dataclass
class SctpChunk:
    """One SCTP chunk (packets here carry exactly one chunk; chunk
    bundling is a performance nicety this subset skips)."""

    PROTO = "sctp"

    kind: str
    src_port: int
    dst_port: int
    tsn: int = 0
    cum_ack: int = 0
    gap_start: int = 0          # lowest TSN held beyond cum_ack (0 = none)
    payload: bytes = b""
    cookie: int = 0
    crc: int = 0                # DATA: the checksum over ``payload``

    @property
    def size(self) -> int:
        if self.kind == CH_DATA:
            return SCTP_COMMON_HEADER + DATA_CHUNK_HEADER + len(self.payload)
        if self.kind == CH_SACK:
            return SCTP_COMMON_HEADER + SACK_CHUNK_SIZE
        return SCTP_COMMON_HEADER + CONTROL_CHUNK_SIZE


class SctpAssociation:
    """One endpoint of an SCTP association (single ordered stream)."""

    #: Exported series (see :mod:`repro.obs.metrics`), labelled host/assoc.
    METRICS = (
        ("transport.sctp.retransmissions", "counter", "retransmissions"),
        ("transport.sctp.out_of_window_drops", "counter", "out_of_window_drops"),
        ("transport.sctp.crc_drops", "counter", "crc_drops"),
        ("transport.sctp.cwnd_bytes", "gauge", "cong.cwnd"),
        ("transport.sctp.rto_ns", "gauge", "rto.rto_ns"),
    )

    def __init__(self, stack: "SctpStack", local_port: int, remote: Address):
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.local_port = local_port
        self.remote = remote
        self.state = CLOSED
        self.established: Future = self.sim.future()
        self.on_message: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

        self.max_message = stack.max_message
        # Transmit side: per-message TSNs; the window's timer also
        # retransmits the handshake chunks.
        self._tx = SendWindow(SCTP_WINDOW_MSGS)
        self._queue: Deque[bytes] = deque()
        self.cong = RenoCongestion(mss=self.max_message)
        self.rto = RtoEstimator()
        self._rtt_tsn: Optional[int] = None
        self._rtt_sent_at = 0
        self._gap_reports = 0
        self._last_gap = 0
        # Receive side: the cumulative TSN is ``_rx.rcv_nxt - 1``.
        self._rx = ReceiveWindow(SCTP_WINDOW_MSGS)
        self._msgs_since_sack = 0
        self._cookie = 0
        # The cookie whose echo established this association passively:
        # a retransmitted echo of it (its COOKIE ACK was lost) is
        # answered again, though the stack has consumed it.
        self._echoed_cookie: Optional[int] = None
        # Statistics.
        self.messages_sent = 0
        self.messages_received = 0
        self.retransmissions = 0
        self.out_of_window_drops = 0
        self.crc_drops = 0
        sim_registry(self.sim).watch(self, {
            "host": stack.host.name,
            "assoc": f"{local_port}-{remote[0]}:{remote[1]}",
        })

    # ------------------------------------------------------------------
    # Establishment (INIT -> INIT-ACK -> COOKIE-ECHO -> COOKIE-ACK)
    # ------------------------------------------------------------------

    def _set_state(self, new_state: str) -> None:
        """Sole state mutator after construction; validates the move
        against :data:`SCTP_TRANSITIONS` via the shared
        :func:`repro.core.fsm.transition` helper (same-state is a no-op)."""
        _fsm_transition(self, "SCTP", SCTP_TRANSITIONS, new_state, SctpError, _ports)

    def open_active(self) -> Future:
        if self.state != CLOSED:
            raise SctpError(f"open_active in state {self.state}")
        self._set_state(COOKIE_WAIT)
        self._send_chunk(CH_INIT)
        self._arm_rtx()
        return self.established

    def _on_init(self, chunk: SctpChunk) -> None:
        # Stateless INIT handling: issue a cookie, keep no association
        # state until COOKIE-ECHO (SYN-flood resistance, modelled).
        cookie = self.stack.issue_cookie(self.remote)
        self._send_chunk(CH_INIT_ACK, cookie=cookie)

    def _on_init_ack(self, chunk: SctpChunk) -> None:
        if self.state != COOKIE_WAIT:
            return
        self._set_state(COOKIE_ECHOED)
        self._cookie = chunk.cookie
        self._send_chunk(CH_COOKIE_ECHO, cookie=chunk.cookie)
        self._arm_rtx()

    def _on_cookie_echo(self, chunk: SctpChunk) -> None:
        if chunk.cookie != self._echoed_cookie:
            if not self.stack.consume_cookie(self.remote, chunk.cookie):
                return
            self._echoed_cookie = chunk.cookie
            if self.state in (CLOSED, COOKIE_WAIT):
                self._set_state(ESTABLISHED)
                if not self.established.done:
                    self.established.set_result(self)
        self._send_chunk(CH_COOKIE_ACK)

    def _on_cookie_ack(self, chunk: SctpChunk) -> None:
        if self.state == COOKIE_ECHOED:
            self._set_state(ESTABLISHED)
            self._tx.stop()
            if not self.established.done:
                self.established.set_result(self)
            self._pump()

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------

    def send_message(self, data: bytes) -> None:
        """Queue one message (boundary preserved end-to-end).

        Messages queued before the association completes (including
        between connect() and the INIT leaving) flush on establishment.
        """
        if self.state == SHUTDOWN_SENT:
            raise SctpError(f"send in state {self.state}")
        if len(data) > self.max_message:
            raise SctpError(
                f"message of {len(data)} bytes exceeds the no-fragmentation "
                f"subset limit {self.max_message}"
            )
        self._queue.append(bytes(data))
        self._pump()

    def _pump(self) -> None:
        if self.state != ESTABLISHED:
            return
        tx = self._tx
        while (self._queue and len(tx.unacked) < tx.limit
               and self.cong.send_allowance(tx.flight_bytes, peer_window=1 << 30)):
            data = self._queue.popleft()
            tsn = tx.push(data)
            self._emit_data(tsn, data)
            if self._rtt_tsn is None:
                self._rtt_tsn = tsn
                self._rtt_sent_at = self.sim.now
        if tx.unacked and (tx.timer is None or not tx.timer.armed):
            self._arm_rtx()

    def _emit_data(self, tsn: int, data: bytes) -> None:
        self.messages_sent += 1
        self._send_chunk(CH_DATA, tsn=tsn, payload=data, crc=crc32(data))

    def _on_data(self, chunk: SctpChunk) -> None:
        if crc32(chunk.payload) != chunk.crc:
            self.crc_drops += 1
            return
        rx = self._rx
        verdict = rx.arrive(chunk.tsn, chunk.payload)
        if verdict == IN_ORDER:
            self._deliver(chunk.payload)
            if rx.parked:
                for data in rx.drain():
                    self._deliver(data)
            self._msgs_since_sack += 1
            if self._msgs_since_sack >= 2 or rx.parked:
                self._send_sack()
        elif verdict == BEYOND:
            self.out_of_window_drops += 1  # no honest sender gets here
        else:
            # A gap report on parking; a duplicate re-announces state.
            self._send_sack()

    def _deliver(self, data: bytes) -> None:
        self.messages_received += 1
        if self.on_message is not None:
            self.stack.deliver_to_app(self, data)

    def _send_sack(self) -> None:
        self._msgs_since_sack = 0
        rx = self._rx
        self._send_chunk(CH_SACK, cum_ack=rx.rcv_nxt - 1, gap_start=rx.lowest_parked())

    def _on_sack(self, chunk: SctpChunk) -> None:
        tx = self._tx
        flight = tx.flight_bytes
        tx.ack(chunk.cum_ack + 1)
        newly = flight - tx.flight_bytes
        if newly:
            self.rto.reset_backoff()
            if self._rtt_tsn is not None and chunk.cum_ack >= self._rtt_tsn:
                self.rto.sample(self.sim.now - self._rtt_sent_at)
                self._rtt_tsn = None
            self.cong.on_ack(newly, chunk.cum_ack)
            self._gap_reports = 0
        if chunk.gap_start and chunk.gap_start == self._last_gap and not newly:
            self._gap_reports += 1
            if self._gap_reports == 3:
                if self.cong.on_dup_acks(tx.flight_bytes, tx.next_seq):
                    self._fast_retransmit(chunk.cum_ack + 1)
        self._last_gap = chunk.gap_start
        if self.cong.in_recovery and newly and chunk.gap_start:
            # Partial progress with a remaining hole: resend it now.
            self._fast_retransmit(chunk.cum_ack + 1)
        if not tx.unacked:
            tx.stop()
        else:
            self._arm_rtx()
        self._pump()

    def _fast_retransmit(self, tsn: int) -> None:
        data = self._tx.unacked.get(tsn)
        if data is not None:
            self.retransmissions += 1
            self._emit_data(tsn, data)

    # -- timers ---------------------------------------------------------------

    def _arm_rtx(self) -> None:
        self._tx.arm(self.sim, self.sim.now + self.rto.rto_ns, self._on_rtx_timeout)

    def _on_rtx_timeout(self) -> None:
        if self.state in (COOKIE_WAIT, COOKIE_ECHOED):
            # Resend the handshake chunk (an INIT carries no cookie yet).
            kind = CH_INIT if self.state == COOKIE_WAIT else CH_COOKIE_ECHO
            self._send_chunk(kind, cookie=self._cookie)
            self.retransmissions += 1
            self._arm_rtx()
            return
        tx = self._tx
        if not tx.unacked:
            return
        self.cong.on_timeout(tx.flight_bytes)
        self.rto.on_timeout()
        self._rtt_tsn = None
        # Go-back: resend every outstanding message from the hole forward
        # (they are whole messages, so this is cheap bookkeeping).
        for tsn, data in tx.unacked.items():
            self.retransmissions += 1
            self._emit_data(tsn, data)
        self._arm_rtx()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        if self.state != ESTABLISHED:
            self._become_closed()
            return
        self._set_state(SHUTDOWN_SENT)
        self._send_chunk(CH_SHUTDOWN, cum_ack=self._rx.rcv_nxt - 1)

    def abort(self) -> None:
        if self.state != CLOSED:
            self._send_chunk(CH_ABORT)
        self._become_closed()

    def _on_shutdown(self, chunk: SctpChunk) -> None:
        self._send_chunk(CH_SHUTDOWN_ACK)
        self._become_closed()

    def _on_shutdown_ack(self, chunk: SctpChunk) -> None:
        self._become_closed()

    def _on_abort(self, chunk: SctpChunk) -> None:
        self._become_closed()

    def _become_closed(self) -> None:
        if self.state == CLOSED:
            return
        self._set_state(CLOSED)
        self._tx.stop()
        self.stack.forget(self)
        if not self.established.done:
            self.established.set_result(None)
        if self.on_close is not None:
            self.on_close()

    # ------------------------------------------------------------------
    # Chunk I/O
    # ------------------------------------------------------------------

    def _send_chunk(self, kind: str, **fields: Any) -> None:
        self.stack.transmit_chunk(
            self, SctpChunk(kind, self.local_port, self.remote[1], **fields)
        )

    def on_chunk(self, chunk: SctpChunk) -> None:
        handler = _CHUNK_HANDLERS.get(chunk.kind)
        if handler is not None:
            handler(self, chunk)


#: Chunk dispatch, built once: each kind's handler is ``_on_<kind>``.
_CHUNK_HANDLERS: Dict[str, Callable[[SctpAssociation, SctpChunk], None]] = {
    kind: getattr(SctpAssociation, "_on_" + kind.lower())
    for kind in (CH_DATA, CH_INIT, CH_INIT_ACK, CH_COOKIE_ECHO, CH_COOKIE_ACK,
                 CH_SACK, CH_SHUTDOWN, CH_SHUTDOWN_ACK, CH_ABORT)
}


class SctpStack:
    """Per-host SCTP: association table, cookies, CPU accounting.

    CPU costs reuse the TCP fields with a +25 % complexity factor — the
    paper's characterization that SCTP "provides even more features ...
    and consequently is more complicated" (§IV.A), while keeping one
    source of calibrated constants.
    """

    EPHEMERAL_BASE = 52000
    COMPLEXITY = 1.25

    #: Exported series (see :mod:`repro.obs.metrics`), labelled host.
    METRICS = (
        ("transport.sctp.bogus_cookie_echoes", "counter", "bogus_cookie_echoes"),
        ("transport.sctp.cookie_evictions", "counter", "cookie_evictions"),
    )

    def __init__(self, host: Host, ip: IpStack):
        self.host = host
        self.sim: Simulator = host.sim
        self.ip = ip
        # No-fragmentation subset: one message per MTU-sized packet.
        self.max_message = ip.mtu() - 20 - SCTP_COMMON_HEADER - DATA_CHUNK_HEADER
        self._assocs: Dict[Tuple[int, int, int], SctpAssociation] = {}
        self._listeners: Dict[int, Listener] = {}
        self._ephemeral = itertools.count(self.EPHEMERAL_BASE)
        self._cookie_seq = itertools.count(0x1000)
        # Issued, unechoed cookies, oldest first (SCTP_MAX_COOKIES).
        self._valid_cookies: Dict[int, Address] = {}
        ip.register("sctp", self._on_ip_delivery)
        self.rx_no_association = 0
        self.cookie_evictions = 0
        self.bogus_cookie_echoes = 0
        sim_registry(self.sim).watch(self, {"host": host.name})

    # -- cookies -----------------------------------------------------------

    def issue_cookie(self, peer: Address) -> int:
        cookies = self._valid_cookies
        if len(cookies) >= SCTP_MAX_COOKIES:
            del cookies[next(iter(cookies))]
            self.cookie_evictions += 1
        cookie = next(self._cookie_seq)
        cookies[cookie] = peer
        return cookie

    def validate_cookie(self, peer: Address, cookie: int) -> bool:
        return self._valid_cookies.get(cookie) == peer

    def consume_cookie(self, peer: Address, cookie: int) -> bool:
        """Validate ``cookie`` and retire it: one echo, one association.
        A bogus echo is counted."""
        if not self.validate_cookie(peer, cookie):
            self.bogus_cookie_echoes += 1
            return False
        del self._valid_cookies[cookie]
        return True

    # -- association management ------------------------------------------------

    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise SctpError(f"SCTP port {port} already listening")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, remote: Address, local_port: Optional[int] = None) -> SctpAssociation:
        lport = local_port if local_port is not None else next(self._ephemeral)
        assoc = self._new_association(lport, remote)
        self.host.cpu.submit(self.host.costs.syscall_ns, assoc.open_active)
        return assoc

    def _new_association(self, local_port: int, remote: Address) -> SctpAssociation:
        key = (local_port, remote[0], remote[1])
        if key in self._assocs:
            raise SctpError(f"association {key} already exists")
        assoc = SctpAssociation(self, local_port, remote)
        self._assocs[key] = assoc
        return assoc

    def forget(self, assoc: SctpAssociation) -> None:
        self._assocs.pop(
            (assoc.local_port, assoc.remote[0], assoc.remote[1]), None
        )

    def open_associations(self) -> int:
        return len(self._assocs)

    # -- transmit ---------------------------------------------------------------

    def transmit_chunk(self, assoc: SctpAssociation, chunk: SctpChunk) -> None:
        costs = self.host.costs
        if chunk.kind == CH_DATA:
            # SCTP carries its own CRC32c over every packet — in a
            # software stack that is a real per-byte pass, the analogue
            # of the DDP-level CRC the UD path pays.
            cost = int(costs.tcp_tx_per_seg_ns * self.COMPLEXITY) \
                + costs.crc_ns(len(chunk.payload))
        elif chunk.kind == CH_SACK:
            cost = int(costs.tcp_ack_tx_ns * self.COMPLEXITY)
        else:
            cost = costs.tcp_tx_per_seg_ns
        self.host.cpu.charge(cost)
        self.ip.send(assoc.remote[0], "sctp", chunk, chunk.size)

    # -- receive -----------------------------------------------------------------

    def _on_ip_delivery(self, chunk: SctpChunk, src_host: int, size: int) -> None:
        costs = self.host.costs
        if chunk.kind == CH_DATA:
            cost = int(costs.tcp_rx_per_seg_ns * self.COMPLEXITY) \
                + costs.crc_ns(len(chunk.payload))
            if self.host.cpu._free_at <= self.sim.now:
                cost += costs.interrupt_ns
        elif chunk.kind == CH_SACK:
            cost = int(costs.tcp_ack_rx_ns * self.COMPLEXITY)
        else:
            cost = costs.tcp_rx_per_seg_ns
        self.host.cpu.submit(cost, self._demux, chunk, src_host)

    def _demux(self, chunk: SctpChunk, src_host: int) -> None:
        key = (chunk.dst_port, src_host, chunk.src_port)
        assoc = self._assocs.get(key)
        if assoc is not None:
            assoc.on_chunk(chunk)
            return
        listener = self._listeners.get(chunk.dst_port)
        if listener is None:
            self.rx_no_association += 1
            return
        if chunk.kind == CH_INIT:
            # Stateless: reply with a cookie, create nothing yet.
            temp = SctpAssociation(self, chunk.dst_port, (src_host, chunk.src_port))
            temp._on_init(chunk)
            return
        if chunk.kind == CH_COOKIE_ECHO:
            # The cookie is checked before any state is kept, so a bogus
            # echo leaves no association behind.
            peer = (src_host, chunk.src_port)
            if not self.validate_cookie(peer, chunk.cookie):
                self.bogus_cookie_echoes += 1
                return
            assoc = self._new_association(chunk.dst_port, peer)
            assoc.on_chunk(chunk)  # consumes the cookie: ESTABLISHED
            listener._deliver(assoc)
            return
        self.rx_no_association += 1

    def deliver_to_app(self, assoc: SctpAssociation, data: bytes) -> None:
        cost = self.host.costs.copy_ns(len(data))
        self.host.cpu.submit(cost, self._app_upcall, assoc, data)

    @staticmethod
    def _app_upcall(assoc: SctpAssociation, data: bytes) -> None:
        if assoc.on_message is not None:
            assoc.on_message(data)
