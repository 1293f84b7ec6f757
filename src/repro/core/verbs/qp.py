"""Queue pairs: RC (connected, over MPA/TCP or SCTP) and UD (datagram).

The datagram QP is the paper's central verbs extension (§IV.B item 4):
"We require a datagram type QP, as well as a method for initializing
datagram QPs ... verbs that allow for the inclusion of destination
addresses and ports when posting a send request ... a datagram receive
verb that allows for the sender's address and port to be reported back".
All of that is implemented here; the RC QP exists as the faithful
baseline the paper compares against.

Error semantics follow §IV.B item 2: an RC stream error terminates the
connection and flushes the QP; a UD QP reports errors (counters, error
completions) but keeps working.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, FrozenSet, Optional, Set, Tuple

from ..fsm import pair_table, transition as _fsm_transition

from ...memory.region import LOCAL_READ_BIT, LOCAL_WRITE_BIT
from ...obs import sim_registry, wr_span
from ...simnet.engine import Future
from ...transport.ip import IP_HEADER
from ...transport.rudp import RUDP_HEADER, RudpSocket
from ...transport.udp import UDP_HEADER, UDP_MAX_PAYLOAD
from ..ddp.headers import (
    CTRL_SIZE, OP_TERMINATE, TAGGED_SIZE, UDEXT_SIZE, UNTAGGED_SIZE,
    DdpSegment, HeaderError, decode_segment,
)
from ..mpa.connection import MpaConnection
from ..mpa.crc import CRC_SIZE, CrcError, append_crc, crc32, split_and_verify
from ..rdmap.engine import RdmapRx, RdmapTx, SendEntry
from .cq import CompletionQueue
from .wr import (
    WC_FLUSHED, WC_SUCCESS, WR_RDMA_READ, WR_SEND,
    Address, RecvWR, SendWR, WcStatus, WorkCompletion, WrOpcode,
)

if TYPE_CHECKING:
    from ...transport.sctp import SctpAssociation
    from .device import RnicDevice

# QP states: the IB/iWARP modify_qp ladder.  The paper keeps standard
# verbs semantics for datagram QPs (§IV.B item 1), so both QP types
# honour the same table; UD QPs simply self-transition RESET -> RTS at
# creation because there is no connection to wait for.
RESET = "RESET"
INIT = "INIT"        # queues allocated, receives may be posted
RTR = "RTR"          # ready to receive
RTS = "RTS"          # ready to send (and receive)
SQD = "SQD"          # send-queue drained: posting sends is rejected
ERROR = "ERROR"

#: The QP machine, declared once: ``(state, event) -> state``.  ERROR is
#: reachable from everywhere; RESET recycles a QP.  ``connect_ready``
#: covers the three creation paths that jump RESET -> RTS (UD creation,
#: MPA negotiation, SCTP association); ``terminate`` covers both local
#: fatal errors and a peer TERMINATE.  iwarplint checks guarded
#: ``_set_state`` calls against this literal, and
#: ``tests/tools/test_fsm_paths.py`` checks its reachability and liveness.
QP_EVENT_TRANSITIONS: Dict[Tuple[str, str], str] = {
    (RESET, "modify_qp"): INIT,
    (RESET, "connect_ready"): RTS,
    (RESET, "close"): ERROR,
    (INIT, "modify_qp"): RTR,
    (INIT, "recycle"): RESET,
    (INIT, "close"): ERROR,
    (RTR, "modify_qp"): RTS,
    (RTR, "recycle"): RESET,
    (RTR, "close"): ERROR,
    (RTS, "sq_drain"): SQD,
    (RTS, "recycle"): RESET,
    (RTS, "terminate"): ERROR,
    (RTS, "close"): ERROR,
    (SQD, "sq_resume"): RTS,
    (SQD, "recycle"): RESET,
    (SQD, "terminate"): ERROR,
    (SQD, "close"): ERROR,
    (ERROR, "recycle"): RESET,
}

#: Legal ``(from, to)`` moves, the projection :meth:`QueuePair._set_state`
#: enforces.
QP_TRANSITIONS: Dict[str, FrozenSet[str]] = pair_table(QP_EVENT_TRANSITIONS)


def _qp_num(qp: "QueuePair") -> str:
    """The error detail of an illegal move (built only on that path)."""
    return f" on QP {qp.qp_num}"


#: Worst-case DDP header: control + tagged/untagged + UD extension.
MAX_HEADER = CTRL_SIZE + max(TAGGED_SIZE, UNTAGGED_SIZE) + UDEXT_SIZE

#: ``(queue, status)`` keys of :attr:`QueuePair.completions`, built once
#: so that counting a completion allocates nothing.  The per-message
#: tables are keyed by the member's ``_name_`` string: an enum member as
#: a key would hash through the Python-level ``Enum.__hash__``.
_COMPLETION_KEYS = {
    queue: {status._name_: (queue, status._name_.lower()) for status in WcStatus}
    for queue in ("sq", "rq")
}

#: :attr:`QueuePair.posts` key of each opcode.
_POST_KEYS = {op._name_: op._name_.lower() for op in WrOpcode}


class QpError(Exception):
    """Invalid verb usage against this QP."""


class QueuePair:
    """State and queues common to both QP types."""

    is_datagram = False
    #: Largest DDP payload one LLP segment carries (set by the subclass
    #: once its channel is known).
    max_seg_payload: int
    #: Datagram QPs only: RD peers declared unreachable (post_send
    #: rejects them).
    failed_peers: Set[Address]
    #: The reliable-datagram LLP, on an RD QP only.
    rd: Optional[RudpSocket] = None
    #: Whether the LLP can still carry a segment (:meth:`_silenced`).
    _llp_open: Callable[[], bool]

    #: Exported series (see :mod:`repro.obs.metrics`), labelled qp/host;
    #: the RDMAP engines declare their own.
    METRICS: Tuple[Tuple[Any, ...], ...] = (
        ("verbs.qp.posts", "counter", "posts", "op"),
        ("verbs.qp.post_bytes", "counter", "post_bytes", "op"),
        ("verbs.qp.recv_posts", "counter", "recv_posts"),
        ("verbs.qp.completions", "counter", "completions", "queue,status"),
        (None, "table", "tx"),
        (None, "table", "rx"),
    )

    def __init__(
        self, device: RnicDevice, pd: int, sq_cq: CompletionQueue, rq_cq: CompletionQueue
    ) -> None:
        self.device = device
        self.host = device.host
        self.sim = device.sim
        self.pd = pd
        self.sq_cq = sq_cq
        self.rq_cq = rq_cq
        self.qp_num = next(device._qp_nums)
        self.state = RESET
        self.rq: Deque[RecvWR] = deque()
        # Every posted send and Read, in post order, until it completes.
        self.sq: Deque[SendEntry] = deque()
        self.tx = RdmapTx(self)
        self.rx = RdmapRx(self)
        self.ready: Future = self.sim.future()
        self.terminate_reason: Optional[str] = None
        # Counters: posts and post bytes by opcode, completions by
        # (queue, status).
        self.posts: Dict[str, int] = {}
        self.post_bytes: Dict[str, int] = {}
        self.recv_posts = 0
        self.completions: Dict[Tuple[str, str], int] = {}
        sim_registry(device.sim).watch(
            self, {"qp": self.qp_num, "host": self.host.name}
        )

    # -- state machine -----------------------------------------------------

    def _set_state(self, new_state: str) -> None:
        """The only way the QP state may change after construction.
        Validates the move against :data:`QP_TRANSITIONS` via the shared
        :func:`repro.core.fsm.transition` helper; a same-state
        "transition" is a no-op, which is what makes teardown paths
        (``close`` after an error, double ``close``) idempotent."""
        _fsm_transition(self, "QP", QP_TRANSITIONS, new_state, QpError, _qp_num)

    def modify_qp(self, new_state: str) -> None:
        """Drive the standard verbs ladder (``ibv_modify_qp`` analogue):
        RESET -> INIT -> RTR -> RTS, RTS <-> SQD to drain/resume the
        send queue, anything -> ERROR (the error path, which flushes),
        ERROR -> RESET to recycle."""
        if new_state == ERROR:
            self._enter_error()
            return
        self._set_state(new_state)
        if new_state == RESET:
            self.terminate_reason = None

    # -- verbs ------------------------------------------------------------

    def post_send(self, wr: SendWR) -> None:
        if self.state != RTS:
            raise QpError(f"post_send on QP {self.qp_num} in state {self.state}")
        length = 0
        for sge in wr.sges:
            if not (sge.mr.access_bits & LOCAL_READ_BIT):
                raise QpError("send SGE lacks LOCAL_READ")
            length += sge.length
        if self.is_datagram:
            if wr.dest is None:
                raise QpError("datagram send requires a destination address")
            if wr.dest in self.failed_peers:
                raise QpError(
                    f"RD peer {wr.dest} was declared unreachable; its WRs were flushed"
                )
        elif wr.dest is not None:
            raise QpError("connected QPs do not take per-WR destinations")
        if wr.wr_id is None:
            wr.wr_id = next(self.device._wr_ids)
        op = _POST_KEYS[wr.opcode._name_]
        self.posts[op] = self.posts.get(op, 0) + 1
        self.post_bytes[op] = self.post_bytes.get(op, 0) + length
        if self.host.wr_tracer is not None:
            wr_span(self.host, "post", qp=self.qp_num, wr_id=wr.wr_id, op=op)
        entry = SendEntry(wr)
        self.sq.append(entry)
        self.tx.post(entry)

    def post_recv(self, wr: RecvWR) -> None:
        if self.state == ERROR:
            raise QpError(f"post_recv on QP {self.qp_num} in ERROR state")
        for sge in wr.sges:
            if not (sge.mr.access_bits & LOCAL_WRITE_BIT):
                raise QpError("receive SGE lacks LOCAL_WRITE")
        if wr.wr_id is None:
            wr.wr_id = next(self.device._wr_ids)
        self.recv_posts += 1
        self.rq.append(wr)

    # -- completions: the one route to a CQ -----------------------------------

    def complete(self, queue: str, wc: WorkCompletion, at_once: bool = False) -> None:
        """Count ``wc`` under ``(queue, status)``, span it, and push it
        to the ``"sq"`` or ``"rq"`` CQ once the CQE cost is paid.  Two
        kinds land ``at_once``: receive flushes, and the receive failure
        that must land ahead of them; so does a send whose CQE cost was
        queued with its segments (:meth:`RdmapTx._start`)."""
        key = _COMPLETION_KEYS[queue][wc.status._name_]
        self.completions[key] = self.completions.get(key, 0) + 1
        if self.host.wr_tracer is not None:
            wr_span(
                self.host, "cqe", qp=self.qp_num, wr_id=wc.wr_id,
                queue=queue, status=key[1], msg_id=wc.msg_id,
            )
        cq = self.rq_cq if queue == "rq" else self.sq_cq
        if at_once:
            cq.push(wc)
        else:
            self.host.cpu.submit(self.host.costs.cqe_ns, cq.push, wc)

    def finish_send(
        self, entry: SendEntry, status: WcStatus, at_once: bool = False, **fields: Any
    ) -> bool:
        """Take ``entry`` off the send queue and complete it with
        ``status`` (``fields`` extend its completion).  Only the first
        call for an entry does anything and returns True: a later one
        (a CQE, ACK, response or reap after a flush) finds it gone.  An
        unsignaled send leaves with no completion; a Read always
        completes."""
        try:
            self.sq.remove(entry)
        except ValueError:
            return False
        if status is WC_FLUSHED and self.rd is not None:
            self.rd_flushed_wrs += 1
        wr = entry.wr
        if wr.signaled or wr.opcode is WR_RDMA_READ:
            self.complete(
                "sq",
                WorkCompletion(
                    wr.wr_id, wr.opcode, status, entry.byte_len,
                    msg_id=entry.msg_id, **fields,
                ),
                at_once,
            )
        return True

    def _silenced(self, seg: DdpSegment) -> bool:
        """The one emit rule, asked only of a QP in ERROR: it sends
        nothing but a TERMINATE, and that only over an open LLP."""
        return seg.opcode != OP_TERMINATE or not self._llp_open()

    def channel_send(
        self, seg: DdpSegment, dest: Optional[Address], first: bool = True,
        msg_len: int = 0, entry: Optional[SendEntry] = None,
    ) -> None:
        """Emit one DDP segment.  ``first`` marks the first segment of an
        RDMAP message and ``msg_len`` its total length — used to charge
        per-message (as opposed to per-segment) costs at the right
        moment.  ``entry`` is the send-queue entry of a posted message's
        segments."""
        raise NotImplementedError

    # -- teardown ---------------------------------------------------------------

    def terminate(self, reason: str) -> None:
        """Local fatal error: notify the peer, error the QP (RC only —
        UD QPs never call this for data-path errors)."""
        if self.state == ERROR:
            return
        try:
            self.tx.send_terminate(reason)
        except Exception:
            pass
        self._enter_error(reason)

    def on_remote_terminate(self, reason: str) -> None:
        if self.is_datagram:
            # Reported, not fatal (§IV.B item 2).
            self.terminate_reason = reason
            return
        self._enter_error(reason)

    def _enter_error(self, reason: Optional[str] = None) -> None:
        """The one error path: ERROR, then FLUSHED for every receive WR
        and then every send-queue entry the QP still holds, so pollers
        observe the teardown instead of waiting forever.  ``reason``
        (None keeps the current record) is the terminate reason."""
        self._set_state(ERROR)
        if reason is not None:
            self.terminate_reason = reason
        self._flush_recv_queue()
        self._flush_send_queue()
        if not self.ready.done:
            # Nobody will ever connect/complete this QP now.
            self.ready.set_result(None)

    def _flush_recv_queue(self) -> None:
        """FLUSHED, at once, first for the receive an RC message was
        being placed into when it errored (taken from ``rq`` at the
        message's first segment), then for every still-posted one, in
        post order."""
        placing = self.rx.take_open_receive()
        if placing is not None:
            self.rq.appendleft(placing)
        rq = self.rq
        while rq:
            wc = WorkCompletion(rq.popleft().wr_id, WR_SEND, WC_FLUSHED)
            self.complete("rq", wc, True)

    def _flush_send_queue(self) -> None:
        """FLUSHED for every entry still on the send queue, in post
        order: a send whose CQE has not landed yet (so it never lands
        SUCCESS), an RD message not yet acknowledged, a Read whose
        response is incomplete."""
        while self.sq:
            self.finish_send(self.sq[0], WC_FLUSHED)

    def _release_channel(self) -> None:
        """Close the underlying transport channel (idempotent)."""
        raise NotImplementedError

    def close(self) -> None:
        """Application teardown: error the QP, which flushes every WR
        it holds (standard verbs semantics — a destroyed QP completes
        posted WRs with FLUSHED rather than leaking them), then release
        the channel.  Idempotent; after an error it only makes sure the
        channel is really released."""
        if self.state != ERROR:
            self._enter_error()
        self._release_channel()


class UdQp(QueuePair):
    """Datagram QP over UDP (or reliable-UDP when ``reliable=True``).

    One UD QP can exchange messages with any number of peers — the
    scalability property the paper's memory study banks on.
    """

    is_datagram = True

    METRICS = QueuePair.METRICS + (
        ("verbs.qp.crc_drops", "counter", "crc_drops"),
        ("verbs.qp.drops_closed", "counter", "drops_closed"),
        ("verbs.qp.rd_flushed_wrs", "counter", "rd_flushed_wrs"),
    )

    def __init__(
        self,
        device: RnicDevice,
        pd: int,
        sq_cq: CompletionQueue,
        rq_cq: CompletionQueue,
        port: Optional[int] = None,
        reliable: bool = False,
        rd_opts: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(device, pd, sq_cq, rq_cq)
        self.reliable = reliable
        udp_sock = device.net.udp.socket(port)
        if reliable:
            self.rd = RudpSocket(udp_sock, **(rd_opts or {}))
            self.rd.on_message = self._on_datagram
            self.rd.accepts = self._crc_intact
            self.rd.on_peer_failed = self._on_rd_peer_failed
            self._sock = self.rd
            overhead = MAX_HEADER + CRC_SIZE + RUDP_HEADER
            # RD segments are retransmission units: keep each inside one
            # MTU.  A 64 KB datagram spans ~45 IP fragments, and losing
            # ANY fragment loses the datagram — at 5 % frame loss that
            # is a ~91 % datagram loss rate, which both cripples goodput
            # and can push a healthy peer past the retry cap.  (UD mode
            # keeps 64 KB datagrams: partial placement wants the big
            # segments, and there is nothing to retransmit.)
            mtu_budget = (
                device.net.ip.mtu() - IP_HEADER - UDP_HEADER - overhead
            )
            self.max_seg_payload = min(UDP_MAX_PAYLOAD - overhead, mtu_budget)
        else:
            self.rd = None
            udp_sock.on_datagram = self._on_datagram
            self._sock = udp_sock
            overhead = MAX_HEADER + CRC_SIZE
            self.max_seg_payload = UDP_MAX_PAYLOAD - overhead
        self._udp_sock = udp_sock
        self._llp_open = lambda: not udp_sock.closed
        # RD: peers declared unreachable.
        self.failed_peers: Set[Address] = set()
        self.crc_drops = 0
        self.drops_closed = 0
        self.rd_flushed_wrs = 0
        # No connection to wait for: a datagram QP is usable at creation.
        self._set_state(RTS)
        self.ready.set_result(self)

    @property
    def address(self) -> Address:
        return (self.host.host_id, self._udp_sock.port)

    # -- transmit ---------------------------------------------------------

    def channel_send(
        self, seg: DdpSegment, dest: Optional[Address], first: bool = True,
        msg_len: int = 0, entry: Optional[SendEntry] = None,
    ) -> None:
        if dest is None:
            raise QpError("UD segment without destination")
        if dest[0] == -1 and self.reliable:
            # Reliable datagrams are peer-to-peer: per-peer ACK state
            # cannot exist for a flooded destination.
            raise QpError("multicast requires an unreliable (UD) QP")
        costs = self.host.costs
        cost = costs.ddp_tx_per_seg_ns + costs.crc_ns(len(seg.payload))
        if seg.tagged:
            cost += costs.ddp_tagged_validate_ns
        if not self.reliable:
            # Fold the kernel sendto() path into the same charge so the
            # whole per-segment send cost is one CPU work item — the
            # message's segments then pipeline onto the wire.  (RD mode
            # keeps the charged socket path: retransmissions must pay.)
            wire_len = seg.wire_size + CRC_SIZE
            nfrags = self.device.net.ip.fragments_needed(wire_len + UDP_HEADER)
            cost += (
                costs.syscall_ns
                + costs.udp_tx_fixed_ns
                + costs.copy_ns(wire_len)
                + costs.ip_tx_per_frag_ns * nfrags
            )
        self.host.cpu.submit(cost, self._emit, seg, dest, entry)

    def _emit(self, seg: DdpSegment, dest: Address, entry: Optional[SendEntry]) -> None:
        if self.state == ERROR and self._silenced(seg):
            # The QP errored or closed with emissions still queued in
            # the stack (the error flushed their WRs): the data is gone.
            self.drops_closed += 1
            return
        if self.host.wr_tracer is not None:
            wr_span(
                self.host, "wire", qp=self.qp_num,
                proto="rudp" if self.reliable else "udp",
                msg_id=seg.msg_id, last=seg.last,
            )
        data = append_crc(seg.encode())
        if not self.reliable:
            self._udp_sock.sendto_uncharged(data, dest)
        elif dest in self.failed_peers:
            # Flushed with its peer's failure: a fresh RD window toward
            # that peer must not carry the rest of the message.
            self.drops_closed += 1
        elif seg.last and entry is not None:
            # RD acknowledges cumulatively, so the LAST segment's result
            # comes after every earlier one's: it completes the message.
            self.rd.sendto(data, dest, partial(self._on_rd_result, entry))
        else:
            self.rd.sendto(data, dest)

    # -- RD reliability plumbing ------------------------------------------

    def _on_rd_result(self, entry: SendEntry, ok: bool) -> None:
        """RD acknowledged the message (SUCCESS) or failed it: its peer
        was declared unreachable, or the QP closed (FLUSHED)."""
        self.finish_send(entry, WC_SUCCESS if ok else WC_FLUSHED)

    def _on_rd_peer_failed(self, addr: Address) -> None:
        """§IV.B item 2, "report, don't kill": the failure is surfaced —
        the peer is recorded and every WR toward it flushes — but the QP
        stays in RTS for every other peer.  The RD layer has already
        failed the messages it held; this flushes the rest, whose LAST
        segment had not reached it: sent later on a fresh window, one
        could succeed although its first segments were lost."""
        self.failed_peers.add(addr)
        self.terminate_reason = f"RD peer {addr} unreachable"
        for entry in [entry for entry in self.sq if entry.wr.dest == addr]:
            self.finish_send(entry, WC_FLUSHED)

    # -- receive ------------------------------------------------------------

    def _crc_intact(self, data: bytes) -> bool:
        """RD's admission check: a segment whose DDP CRC fails is
        counted here and never enters the window, so it is not
        acknowledged and its sender repairs it like a loss."""
        size = len(data) - CRC_SIZE
        if size >= 0 and crc32(memoryview(data)[:size]) == int.from_bytes(data[size:], "big"):
            return True
        self.crc_drops += 1
        return False

    def _on_datagram(self, data: bytes, src: Address) -> None:
        try:
            # RD checked the CRC before its window took the segment.
            body = data[:-CRC_SIZE] if self.reliable else split_and_verify(data)
            seg = decode_segment(body, ud=True)
        except (CrcError, HeaderError):
            self.crc_drops += 1
            return
        costs = self.host.costs
        cost = costs.ddp_rx_per_seg_ns + costs.crc_ns(len(data))
        if seg.tagged:
            cost += costs.ddp_tagged_validate_ns
        else:
            cost += costs.ddp_untagged_match_ns
        cost += int(costs.placement_per_byte_ns * len(seg.payload))
        self.host.cpu.submit(cost, self.rx.on_segment, seg, src)

    def _release_channel(self) -> None:
        self._sock.close()


class RcQp(QueuePair):
    """Connected QP over MPA/TCP — the traditional iWARP baseline.

    The lower-layer protocol (LLP) is attached by :meth:`_attach`;
    readiness, the per-segment send cost and the receive path are the
    same for every LLP."""

    is_datagram = False

    #: Why the QP errors when its LLP never becomes ready.
    _READY_FAILURE = "MPA negotiation failed"
    #: The LLP, as wire spans name it.
    _PROTO = "tcp"

    def __init__(
        self,
        device: RnicDevice,
        pd: int,
        sq_cq: CompletionQueue,
        rq_cq: CompletionQueue,
        llp: Any,
        remote: Address,
    ) -> None:
        super().__init__(device, pd, sq_cq, rq_cq)
        self.remote = remote
        self._attach(llp).add_callback(self._on_llp_ready)

    def _attach(self, mpa: MpaConnection) -> Future:
        """Wire the LLP's callbacks to this QP and bind its framing
        cost, open test and send call; returns its ready future."""
        self.mpa = mpa
        self.max_seg_payload = self.device.rc_mulpdu - MAX_HEADER
        self._frame_cost_ns: Callable[[int], int] = mpa.frame_cost_ns
        self._llp_open = lambda: mpa.state == "OPERATIONAL"
        self._llp_send: Callable[[bytes], None] = mpa.emit_ulpdu_now
        mpa.on_ulpdu = self._on_ulpdu
        mpa.on_error = lambda exc: self._enter_error(str(exc))
        return mpa.ready

    def _on_llp_ready(self, result: Optional[object]) -> None:
        if result is None:
            self._enter_error(self._READY_FAILURE)
            return
        if self.state != RESET:
            # Only a QP still waiting goes live: one that errored (a
            # reset, a close) while this readiness was queued stays.
            return
        self._set_state(RTS)
        if not self.ready.done:
            self.ready.set_result(self)

    # -- transmit ---------------------------------------------------------

    def channel_send(
        self, seg: DdpSegment, dest: Optional[Address], first: bool = True,
        msg_len: int = 0, entry: Optional[SendEntry] = None,
    ) -> None:
        costs = self.host.costs
        cost = costs.ddp_tx_per_seg_ns
        if seg.tagged:
            cost += costs.ddp_tagged_validate_ns
        if first:
            # One send() call covers the whole message's FPDU train
            # (writev batching): syscall + kernel fixed + user->kernel copy.
            cost += costs.syscall_ns + costs.tcp_tx_fixed_ns + costs.copy_ns(msg_len)
        cost += self._frame_cost_ns(seg.wire_size)
        self.host.cpu.submit(cost, self._emit, seg)

    def _emit(self, seg: DdpSegment) -> None:
        if self.state == ERROR and self._silenced(seg):
            # Until the QP errors the LLP is open: its failure or close
            # errors the QP at once (IC401 checks RTS/SQD over
            # OPERATIONAL MPA).
            return
        if self.host.wr_tracer is not None:
            wr_span(
                self.host, "wire", qp=self.qp_num, proto=self._PROTO,
                msg_id=seg.msg_id, last=seg.last,
            )
        self._llp_send(seg.encode())

    # -- receive ------------------------------------------------------------

    def _on_ulpdu(self, ulpdu: bytes) -> None:
        try:
            seg = decode_segment(ulpdu, ud=False)
        except HeaderError:
            self.terminate("malformed DDP segment")
            return
        costs = self.host.costs
        cost = costs.ddp_rx_per_seg_ns
        if seg.tagged:
            cost += costs.ddp_tagged_validate_ns
            # The RC software stack stages tagged payloads through an
            # intermediate buffer (CALIBRATED — see CostModel).
            cost += int(
                (costs.placement_per_byte_ns + costs.rc_tagged_staging_per_byte_ns)
                * len(seg.payload)
            )
        else:
            cost += costs.ddp_untagged_match_ns
            cost += int(costs.placement_per_byte_ns * len(seg.payload))
        if seg.last:
            # The user-space library's per-message recv/select syscalls.
            cost += costs.tcp_rx_syscalls_per_msg * costs.syscall_ns
        self.host.cpu.submit(cost, self.rx.on_segment, seg, self.remote)

    def _release_channel(self) -> None:
        self.mpa.close()


def _no_framing_ns(ulpdu_len: int) -> int:
    """SCTP carries each DDP segment as one message: no MPA framing."""
    return 0


class RcSctpQp(RcQp):
    """Connected QP over SCTP — the standard's other LLP (RFC 5043
    shape): SCTP's own message boundaries replace the entire MPA layer,
    and its built-in CRC32c replaces the DDP-level CRC.  Everything else
    (in-order MSN matching, fatal stream errors, the RC software stack's
    tagged staging) is :class:`RcQp`'s, so comparing the two isolates
    exactly the TCP-adaptation overhead the paper discusses in §IV.A."""

    _READY_FAILURE = "SCTP association failed"
    _PROTO = "sctp"

    def _attach(self, assoc: SctpAssociation) -> Future:  # type: ignore[override]
        self.assoc = assoc
        self.max_seg_payload = assoc.max_message - MAX_HEADER
        self._frame_cost_ns = _no_framing_ns
        self._llp_open = lambda: assoc.state != "CLOSED"
        self._llp_send = assoc.send_message
        assoc.on_message = self._on_ulpdu
        assoc.on_close = self._on_assoc_closed
        return assoc.established

    def _on_assoc_closed(self) -> None:
        """The peer shut the association down or aborted it: the stream
        is gone, so a QP still in RTS errors (as an MPA failure does)."""
        if self.state != ERROR:
            self._enter_error("SCTP association closed")

    def _release_channel(self) -> None:
        self.assoc.shutdown()

