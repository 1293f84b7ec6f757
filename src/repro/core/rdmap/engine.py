"""RDMAP transmit and receive engines.

One pair of engines per queue pair, parameterized only by the channel
underneath (MPA/TCP for RC, UDP or reliable-UDP for UD).  Everything the
paper specifies about operation semantics lives here:

* **Send/Recv** (untagged): RC matches receives in MSN order and treats
  an unmatched arrival as a fatal stream error; UD matches "incoming
  packets at the DDP layer with the appropriate receive WR" in arrival
  order, reassembles multi-segment messages in any order, reports the
  source address in the completion, and times out partial messages
  instead of erroring the QP (§IV.B items 2–4, §IV.B.1).

* **RDMA Write** (tagged): direct placement through the STag registry.
  On RC, target-side visibility needs a follow-up send (Fig. 3 top).

* **RDMA Write-Record** (tagged + UD extension): places each arriving
  segment immediately, records (offset, length) chunks in a validity
  map, and on arrival of the LAST segment raises a completion carrying
  the map — no posted receive, no source-side second message (Fig. 3
  bottom).  Loss of the LAST segment means no completion: the paper's
  stated failure mode, surfaced to applications by CQ poll timeout and
  reaped here by a state timer.

* **RDMA Read**: RC per the standard (untagged request queue 1, tagged
  response); the UD variant the paper lists as future work is
  implemented as an extension — responses carry the UD header and the
  requester completes with a validity map like Write-Record.

* **Terminate**: RC tears the stream down; on UD, errors are "simply
  reported, but the QP is not forced into the error state" (§IV.B
  item 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...memory.region import (
    LOCAL_WRITE_BIT, REMOTE_READ_BIT, REMOTE_WRITE_BIT, MemoryAccessError,
)
from ...memory.validity import ValidityMap
from ...obs import wr_span
from ...simnet.engine import MS, Event
from ..ddp.headers import DdpSegment, HeaderError, OP_READ_REQUEST, OP_READ_RESPONSE, OP_SEND, OP_SEND_SE, OP_TERMINATE, OP_WRITE, OP_WRITE_RECORD, QN_READ_REQUEST, QN_SEND, QN_TERMINATE, decode_read_request, encode_read_request
from ..ddp.segmentation import ReassemblyError, UntaggedReassembly, plan_segments
from ..verbs.wr import Address, SendWR, WcStatus, WorkCompletion, WrOpcode, gather

#: How long UD reassembly / write-record state lives without completing
#: before it is reaped (the application-visible effect is a missing or
#: PARTIAL_MESSAGE completion — the paper's poll-timeout contract).
UD_REASSEMBLY_TIMEOUT_NS = 200 * MS

#: Open Write-Record logs per QP.  A log needs no posted receive, so
#: without a cap a peer spraying message ids at a valid STag grows the
#: table until the reap timeout.  Honest runs hold at most 3 at once.
MAX_WRITE_RECORD_LOGS = 1024

#: DDP opcode of each message-carrying verbs opcode, keyed by the
#: member's ``_name_`` (an enum key would hash through Python code).
_OPCODE_FOR_WR = {
    WrOpcode.SEND._name_: OP_SEND,
    WrOpcode.SEND_SE._name_: OP_SEND_SE,
    WrOpcode.RDMA_WRITE._name_: OP_WRITE,
    WrOpcode.RDMA_WRITE_RECORD._name_: OP_WRITE_RECORD,
}


class RdmapError(Exception):
    """Protocol violations detected by the engines."""


@dataclass
class _WriteRecordState:
    """Target-side log for one in-flight Write-Record message."""

    stag: int
    base_to: int
    total: int
    validity: ValidityMap
    timer: object = None


@dataclass
class _PendingRead:
    """Requester-side state for one outstanding RDMA Read."""

    wr: SendWR
    sink_stag: int
    length: int
    validity: ValidityMap
    timer: object = None


class RdmapTx:
    """Send-side: turns work requests into DDP segment trains."""

    #: Exported series, under the owning QP's labels.
    METRICS = (
        ("rdmap.tx.messages", "counter", "messages"),
        ("rdmap.tx.segments", "counter", "segments"),
        ("rdmap.write_record.messages", "counter", "write_record_messages"),
        ("rdmap.write_record.segments", "counter", "write_record_segments"),
        ("rdmap.untagged.messages", "counter", "untagged_messages"),
        ("rdmap.untagged.segments", "counter", "untagged_segments"),
    )

    def __init__(self, qp):
        self.qp = qp
        # Last send MSN, read MSN and message id handed out: plain ints,
        # like the counters below, so building a QP allocates no
        # iterator objects.
        self._send_msn = 0
        self._read_msn = 0
        self._msg_id = 0
        self.messages = 0
        self.segments = 0
        self.write_record_messages = 0
        self.write_record_segments = 0
        self.untagged_messages = 0
        self.untagged_segments = 0

    # -- public ----------------------------------------------------------

    def post(self, wr: SendWR) -> None:
        host = self.qp.host
        # Gather (snapshot) the payload at post time: ownership of the
        # SGE buffers transfers to the stack when the WR is posted, so a
        # caller reusing its buffer immediately afterwards must not
        # corrupt the in-flight message.
        payload = None if wr.opcode is WrOpcode.RDMA_READ else gather(wr.sges)
        host.cpu.submit(host.costs.verbs_post_ns, self._start, wr, payload)

    # -- internals ----------------------------------------------------------

    def _start(self, wr: SendWR, payload: Optional[bytes]) -> None:
        if wr.opcode is WrOpcode.RDMA_READ:
            self._start_read(wr)
            return
        opcode = _OPCODE_FOR_WR[wr.opcode._name_]
        tagged = wr.opcode in (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_RECORD)
        qp = self.qp
        msg_id = None
        if qp.is_datagram or wr.opcode is WrOpcode.RDMA_WRITE_RECORD:
            self._msg_id += 1
            msg_id = self._msg_id
        msn = 0
        if not tagged:
            self._send_msn += 1
            msn = self._send_msn
        msg_len = len(payload)
        specs = plan_segments(msg_len, qp.max_seg_payload)
        self.messages += 1
        self.segments += len(specs)
        if wr.opcode is WrOpcode.RDMA_WRITE_RECORD:
            self.write_record_messages += 1
            self.write_record_segments += len(specs)
        elif not tagged:
            self.untagged_messages += 1
            self.untagged_segments += len(specs)
        if qp.host.wr_tracer is not None:
            wr_span(
                qp.host, "segment", qp=qp.qp_num, wr_id=wr.wr_id,
                msg_id=msg_id, nsegs=len(specs),
            )
        for spec in specs:
            offset = spec.offset
            # A whole-payload slice of ``bytes`` is the payload itself.
            seg = DdpSegment(opcode, spec.last, payload[offset : offset + spec.length], tagged)
            if tagged:
                seg.stag = wr.remote_stag
                seg.to = wr.remote_offset + offset
            else:
                seg.qn = QN_SEND
                seg.msn = msn
                seg.mo = offset
            if msg_id is not None:
                seg.msg_id = msg_id
                seg.msg_total = msg_len
                seg.msg_offset = offset
            qp.channel_send(seg, wr.dest, offset == 0, msg_len)
        # The source "completes the operation at the moment that the last
        # bit of the message is passed to the transport layer" (§IV.B.3):
        # the segment emissions above are queued on this host CPU, so the
        # default hook lands a completion right after the LLP handoff.
        # Reliable-datagram QPs override the hook to defer the completion
        # until the RD layer acknowledges (or fails) every segment.
        qp.sent_to_llp(wr, msg_len, msg_id, len(specs))

    def _start_read(self, wr: SendWR) -> None:
        if len(wr.sges) != 1:
            self._fail_send(wr, WcStatus.LOCAL_LENGTH_ERROR)
            return
        sink = wr.sges[0]
        if not (sink.mr.access_bits & LOCAL_WRITE_BIT):
            self._fail_send(wr, WcStatus.LOCAL_PROTECTION_ERROR)
            return
        msg_id = self._next_msg_id() if self.qp.is_datagram else None
        pending = _PendingRead(
            wr=wr,
            sink_stag=sink.mr.stag,
            length=sink.length,
            validity=ValidityMap(sink.length),
        )
        self.qp.rx.track_read(pending, msg_id)
        self._read_msn += 1
        payload = encode_read_request(
            sink.mr.stag, sink.offset, sink.length, wr.remote_stag, wr.remote_offset
        )
        seg = DdpSegment(
            opcode=OP_READ_REQUEST,
            last=True,
            payload=payload,
            tagged=False,
            qn=QN_READ_REQUEST,
            msn=self._read_msn,
            mo=0,
        )
        if self.qp.is_datagram:
            seg.msg_id = msg_id
            seg.msg_total = len(payload)
        self.qp.channel_send(seg, wr.dest, first=True, msg_len=len(payload))

    def _next_msg_id(self) -> int:
        self._msg_id += 1
        return self._msg_id

    def _fail_send(self, wr: SendWR, status: WcStatus) -> None:
        self.qp.sq_cq.push(
            WorkCompletion(wr_id=wr.wr_id, opcode=wr.opcode, status=status)
        )

    def send_terminate(self, reason: str, dest: Optional[Address] = None) -> None:
        seg = DdpSegment(
            opcode=OP_TERMINATE,
            last=True,
            payload=reason.encode()[:200],
            tagged=False,
            qn=QN_TERMINATE,
            msn=0,
            mo=0,
        )
        if self.qp.is_datagram:
            seg.msg_id = self._next_msg_id()
            seg.msg_total = len(seg.payload)
        self.qp.channel_send(seg, dest, first=True, msg_len=len(seg.payload))


class RdmapRx:
    """Receive-side: dispatches parsed DDP segments."""

    #: Exported series, under the owning QP's labels.
    METRICS = (
        ("rdmap.rx.drops_no_recv_posted", "counter", "drops_no_recv_posted"),
        ("rdmap.rx.drops_malformed", "counter", "drops_malformed"),
        ("rdmap.rx.remote_access_errors", "counter", "remote_access_errors"),
        ("rdmap.rx.reaped_partial", "counter", "reaped_partial"),
        ("rdmap.rx.duplicate_segments", "counter", "duplicate_segments"),
        ("rdmap.write_record.placements", "counter", "write_record_placements"),
        ("rdmap.write_record.placed_bytes", "counter", "write_record_placed_bytes"),
        ("rdmap.write_record.completions", "counter", "write_record_completions"),
        ("rdmap.write_record.log_overflows", "counter", "write_record_log_overflows"),
    )

    def __init__(self, qp):
        self.qp = qp
        # RC: strict MSN ordering, one untagged message open at a time.
        self._rc_expected_msn = 1
        self._rc_current: Optional[UntaggedReassembly] = None
        # UD: unordered reassembly keyed by (source, message id).
        self._ud_untagged: Dict[Tuple[Address, int], UntaggedReassembly] = {}
        self._ud_timers: Dict[Tuple[Address, int], object] = {}
        # Reap timers finished messages left, by callback, for the next
        # message to rearm.
        self._spare_reapers: Dict[Callable, Event] = {}
        # Write-Record logs keyed by (source, message id); RC uses a
        # None source key.
        self._write_records: Dict[Tuple[Optional[Address], int], _WriteRecordState] = {}
        # Outstanding RDMA Reads: FIFO on RC, by msg_id on UD.
        self._reads_fifo: List[_PendingRead] = []
        self._reads_by_id: Dict[int, _PendingRead] = {}
        # Statistics the tests and benchmarks read.
        self.drops_no_recv_posted = 0
        self.drops_malformed = 0
        self.remote_access_errors = 0
        self.reaped_partial = 0
        self.duplicate_segments = 0
        self.write_record_placements = 0
        self.write_record_placed_bytes = 0
        self.write_record_completions = 0
        self.write_record_log_overflows = 0

    # ------------------------------------------------------------------
    # Entry point (CPU costs already charged by the channel glue)
    # ------------------------------------------------------------------

    def on_segment(self, seg: DdpSegment, src: Optional[Address]) -> None:
        if self.qp.host.wr_tracer is not None:
            wr_span(
                self.qp.host, "delivery", qp=self.qp.qp_num,
                msg_id=seg.msg_id, opcode=seg.opcode, last=seg.last,
            )
        try:
            if seg.tagged:
                if seg.opcode == OP_WRITE:
                    self._on_write(seg)
                elif seg.opcode == OP_WRITE_RECORD:
                    self._on_write_record(seg, src)
                elif seg.opcode == OP_READ_RESPONSE:
                    self._on_read_response(seg, src)
                else:
                    raise HeaderError(f"tagged segment with opcode {seg.opcode}")
            elif seg.qn == QN_SEND and seg.opcode in (OP_SEND, OP_SEND_SE):
                if self.qp.is_datagram:
                    self._on_send_ud(seg, src)
                else:
                    self._on_send_rc(seg, src)
            elif seg.qn == QN_READ_REQUEST and seg.opcode == OP_READ_REQUEST:
                self._on_read_request(seg, src)
            elif seg.qn == QN_TERMINATE and seg.opcode == OP_TERMINATE:
                self._on_terminate(seg)
            else:
                raise HeaderError(f"untagged segment qn={seg.qn} opcode={seg.opcode}")
        except (HeaderError, ReassemblyError):
            self.drops_malformed += 1
            if not self.qp.is_datagram:
                self.qp.terminate("malformed segment")
        except MemoryAccessError as exc:
            self.remote_access_errors += 1
            if not self.qp.is_datagram:
                self.qp.terminate(f"remote access error: {exc}")
            # On UD the error is reported and the QP stays usable
            # (§IV.B item 2).

    # ------------------------------------------------------------------
    # Tagged model
    # ------------------------------------------------------------------

    def _place_tagged(self, seg: DdpSegment) -> None:
        mr = self.qp.device.registry.resolve(
            seg.stag, seg.to, len(seg.payload), REMOTE_WRITE_BIT,
            pd_handle=self.qp.pd,
        )
        if seg.payload:
            mr.write(seg.to, seg.payload, remote=True)

    def _on_write(self, seg: DdpSegment) -> None:
        """Plain RDMA Write: silent placement, no target completion."""
        self._place_tagged(seg)

    def _on_write_record(self, seg: DdpSegment, src: Optional[Address]) -> None:
        if seg.msg_id is None or seg.msg_total is None:
            raise HeaderError("Write-Record segment lacks the UD extension")
        self._place_tagged(seg)
        key = (src, seg.msg_id)
        state = self._write_records.get(key)
        new = state is None
        if new:
            if len(self._write_records) >= MAX_WRITE_RECORD_LOGS:
                # No log, so no completion: the message is lost as if reaped.
                self.write_record_log_overflows += 1
                return
            # Any segment fixes the message's base TO: the UD extension
            # carries the segment's message offset, and TO = base + offset.
            base_to = seg.to - seg.msg_offset
            state = _WriteRecordState(
                stag=seg.stag,
                base_to=base_to,
                total=seg.msg_total,
                validity=ValidityMap(seg.msg_total),
            )
            self._write_records[key] = state
            if not seg.last:
                # A LAST segment finishes the message below, so only a
                # message it does not finish needs a reap timer.
                state.timer = self._arm_reap(self._reap_write_record, key)
        offset = seg.to - state.base_to
        if not new and seg.payload and state.validity.covered(offset, len(seg.payload)):
            self.duplicate_segments += 1
        state.validity.add(offset, len(seg.payload))
        self.write_record_placements += 1
        self.write_record_placed_bytes += len(seg.payload)
        if seg.last:
            # "The final packet must arrive for the partial message to be
            # placed into memory and those parts that are valid are
            # declared as such" (§VI.A.2): declaration happens now,
            # complete or not.
            self._finish_write_record(key, state)

    def _arm_reap(self, reap: Callable, key) -> Event:
        """A timer calling ``reap(key)`` after UD_REASSEMBLY_TIMEOUT_NS:
        the spare one a finished message left, if there is one."""
        sim = self.qp.sim
        timer = self._spare_reapers.pop(reap, None)
        if timer is None:
            return sim.at(sim.now + UD_REASSEMBLY_TIMEOUT_NS, reap, key)
        sim.rearm(timer, sim.now + UD_REASSEMBLY_TIMEOUT_NS, key)
        return timer

    def _finish_write_record(self, key, state: _WriteRecordState) -> None:
        if state.timer is not None:
            state.timer.cancel()
            self._spare_reapers[self._reap_write_record] = state.timer
        self._write_records.pop(key, None)
        self.write_record_completions += 1
        src = key[0]
        self.qp.push_rq_completion(
            WorkCompletion(
                wr_id=0,
                opcode=WrOpcode.RDMA_WRITE_RECORD,
                status=WcStatus.SUCCESS,
                byte_len=state.validity.valid_bytes(),
                src=src,
                validity=state.validity,
                msg_id=key[1],
                base_offset=state.base_to,
            )
        )

    def _reap_write_record(self, key) -> None:
        """LAST segment never arrived: whole message is lost to the
        application (no completion is ever raised)."""
        state = self._write_records.pop(key, None)
        if state is not None:
            self.reaped_partial += 1

    # ------------------------------------------------------------------
    # Untagged model: send/recv
    # ------------------------------------------------------------------

    def _on_send_rc(self, seg: DdpSegment, src: Optional[Address]) -> None:
        if seg.msn != self._rc_expected_msn:
            raise HeaderError(
                f"MSN {seg.msn} out of order (expected {self._rc_expected_msn})"
            )
        if self._rc_current is None:
            rq = self.qp.rq
            if not rq:
                # RC semantics: untagged arrival with no posted receive is
                # a fatal stream error (the relaxation is UD-only).
                self.qp.terminate("no receive posted")
                return
            wr = rq.popleft()
            # Message length is only certain at LAST on RC (no UD header);
            # reassemble against the posted capacity.
            capacity = wr.capacity
            total = seg.msg_total if seg.msg_total is not None else capacity
            self._rc_current = UntaggedReassembly(wr, min(total, capacity))
        state = self._rc_current
        if seg.mo + len(seg.payload) > state.capacity:
            self.qp.terminate("send overruns posted receive")
            return
        state.place(seg.mo, seg.payload, seg.last)
        if seg.last:
            self._rc_expected_msn += 1
            self._rc_current = None
            self.qp.push_rq_completion(
                WorkCompletion(
                    wr_id=state.wr.wr_id,
                    opcode=WrOpcode.SEND,
                    status=WcStatus.SUCCESS,
                    byte_len=seg.mo + len(seg.payload),
                    src=src,
                    solicited=seg.opcode == OP_SEND_SE,
                )
            )

    def _on_send_ud(self, seg: DdpSegment, src: Optional[Address]) -> None:
        if seg.msg_id is None or seg.msg_total is None:
            raise HeaderError("UD send segment lacks the UD extension")
        key = (src, seg.msg_id)
        state = self._ud_untagged.get(key)
        if state is None:
            rq = self.qp.rq
            if not rq:
                # UD semantics: nothing to match — the datagram is dropped
                # and reported, the QP survives.
                self.drops_no_recv_posted += 1
                return
            wr = rq.popleft()
            try:
                state = UntaggedReassembly(wr, seg.msg_total)
            except ReassemblyError:  # the message is larger than the receive
                self.qp.push_rq_completion(
                    WorkCompletion(
                        wr_id=wr.wr_id,
                        opcode=WrOpcode.SEND,
                        status=WcStatus.LOCAL_LENGTH_ERROR,
                        byte_len=seg.msg_total,
                        src=src,
                        msg_id=seg.msg_id,
                    )
                )
                return
            self._ud_untagged[key] = state
            if not (seg.last and seg.mo == 0 and len(seg.payload) == seg.msg_total):
                # A segment that is the whole message completes it below,
                # so only a message it does not complete needs a reap timer.
                self._ud_timers[key] = self._arm_reap(self._reap_untagged, key)
        elif seg.payload and state.validity.covered(seg.mo, len(seg.payload)):
            self.duplicate_segments += 1
        try:
            state.place(seg.mo, seg.payload, seg.last)
        except MemoryAccessError:
            # The receive buffer was deregistered: reap the message, and
            # with it the consumed receive, as if it had stayed partial.
            if key not in self._ud_timers:
                self._ud_timers[key] = self._arm_reap(self._reap_untagged, key)
            raise
        if state.saw_last and state.validity.complete:
            self._finish_untagged(key, state, src, seg.opcode == OP_SEND_SE)

    def _finish_untagged(
        self, key, state: UntaggedReassembly, src: Optional[Address], solicited: bool
    ) -> None:
        timer = self._ud_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
            self._spare_reapers[self._reap_untagged] = timer
        self._ud_untagged.pop(key, None)
        # Multi-segment UD messages pay the stack-level recombination cost
        # (§IV.B.1); single-segment ones do not.
        if state.total > self.qp.max_seg_payload:
            self.qp.host.cpu.charge(
                int(self.qp.host.costs.reassembly_per_byte_ns * state.total)
            )
        self.qp.push_rq_completion(
            WorkCompletion(
                wr_id=state.wr.wr_id,
                opcode=WrOpcode.SEND,
                status=WcStatus.SUCCESS,
                byte_len=state.total,
                src=src,
                msg_id=key[1],
                solicited=solicited,
            )
        )

    def _reap_untagged(self, key) -> None:
        """UD reassembly never completed (loss): the consumed receive WR
        completes in error so the application can repost it."""
        state = self._ud_untagged.pop(key, None)
        self._ud_timers.pop(key, None)
        if state is None:
            return
        self.reaped_partial += 1
        self.qp.push_rq_completion(
            WorkCompletion(
                wr_id=state.wr.wr_id,
                opcode=WrOpcode.SEND,
                status=WcStatus.PARTIAL_MESSAGE,
                byte_len=state.validity.valid_bytes(),
                src=key[0],
                validity=state.validity,
                msg_id=key[1],
            )
        )

    # ------------------------------------------------------------------
    # RDMA Read
    # ------------------------------------------------------------------

    def track_read(self, pending: _PendingRead, msg_id: Optional[int]) -> None:
        if msg_id is None:
            self._reads_fifo.append(pending)
        else:
            self._reads_by_id[msg_id] = pending
            pending.timer = self._arm_reap(self._reap_read, msg_id)

    def _on_read_request(self, seg: DdpSegment, src: Optional[Address]) -> None:
        sink_stag, sink_to, length, src_stag, src_to = decode_read_request(seg.payload)
        mr = self.qp.device.registry.resolve(
            src_stag, src_to, length, REMOTE_READ_BIT, pd_handle=self.qp.pd
        )
        data = bytes(mr.read(src_to, length, remote=True))
        msg_id = seg.msg_id  # echo the requester's id on UD
        specs = plan_segments(len(data), self.qp.max_seg_payload)
        for spec in specs:
            resp = DdpSegment(
                opcode=OP_READ_RESPONSE,
                last=spec.last,
                payload=data[spec.offset : spec.offset + spec.length],
                tagged=True,
                stag=sink_stag,
                to=sink_to + spec.offset,
            )
            if msg_id is not None:
                resp.msg_id = msg_id
                resp.msg_total = len(data)
                resp.msg_offset = spec.offset
            self.qp.channel_send(
                resp, src, first=spec.offset == 0, msg_len=len(data)
            )

    def _on_read_response(self, seg: DdpSegment, src: Optional[Address]) -> None:
        # The response targets the *sink* buffer the requester advertised;
        # placement needs only local write rights there.
        mr = self.qp.device.registry.resolve(
            seg.stag, seg.to, len(seg.payload), LOCAL_WRITE_BIT,
            pd_handle=self.qp.pd,
        )
        if seg.payload:
            mr.write(seg.to, seg.payload)
        if seg.msg_id is not None:
            pending = self._reads_by_id.get(seg.msg_id)
            if pending is None:
                self.duplicate_segments += 1
                return
            base = pending.wr.sges[0].offset
            pending.validity.add(seg.to - base, len(seg.payload))
            if seg.last:
                self._finish_read_ud(seg.msg_id, pending, src)
        else:
            if not self._reads_fifo:
                raise HeaderError("read response with no outstanding read")
            pending = self._reads_fifo[0]
            base = pending.wr.sges[0].offset
            pending.validity.add(seg.to - base, len(seg.payload))
            if seg.last:
                self._reads_fifo.pop(0)
                self.qp.sq_cq.push(
                    WorkCompletion(
                        wr_id=pending.wr.wr_id,
                        opcode=WrOpcode.RDMA_READ,
                        status=WcStatus.SUCCESS,
                        byte_len=pending.validity.valid_bytes(),
                    )
                )

    def _finish_read_ud(self, msg_id: int, pending: _PendingRead, src) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
            self._spare_reapers[self._reap_read] = pending.timer
        self._reads_by_id.pop(msg_id, None)
        status = (
            WcStatus.SUCCESS if pending.validity.complete else WcStatus.PARTIAL_MESSAGE
        )
        self.qp.sq_cq.push(
            WorkCompletion(
                wr_id=pending.wr.wr_id,
                opcode=WrOpcode.RDMA_READ,
                status=status,
                byte_len=pending.validity.valid_bytes(),
                src=src,
                validity=pending.validity,
                msg_id=msg_id,
            )
        )

    def _reap_read(self, msg_id: int) -> None:
        pending = self._reads_by_id.pop(msg_id, None)
        if pending is None:
            return
        self.reaped_partial += 1
        self.qp.sq_cq.push(
            WorkCompletion(
                wr_id=pending.wr.wr_id,
                opcode=WrOpcode.RDMA_READ,
                status=WcStatus.PARTIAL_MESSAGE,
                byte_len=pending.validity.valid_bytes(),
                validity=pending.validity,
                msg_id=msg_id,
            )
        )

    # ------------------------------------------------------------------
    # Terminate
    # ------------------------------------------------------------------

    def _on_terminate(self, seg: DdpSegment) -> None:
        reason = seg.payload.decode(errors="replace")
        self.qp.on_remote_terminate(reason)
