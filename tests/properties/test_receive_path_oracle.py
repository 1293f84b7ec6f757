"""Oracle property test for the untagged (send/recv) receive paths.

A UD message that arrives whole in one segment is placed into its
receive WR and completed with no reassembly record, validity map or
reap timer, and an RC message is placed segment by segment straight
into its receive WR.  :class:`OracleRx` keeps the earlier
``_on_send_rc`` and ``_on_send_ud`` verbatim, which open an
:class:`UntaggedReassembly` for every message (its ``_on_send_rc``
also completes an overrun receive LOCAL_LENGTH_ERROR, as the live
engine does).  Both engines are driven
with the same random segment streams: whole and split messages,
duplicates, lost segments, segments that overrun their message, a
missing receive, a too-small receive, a deregistered receive buffer
and, on RC, an out-of-order MSN.  After every step they must agree on
the completions (with their simulated time), the landed bytes, the
counters, the terminate reasons, the CPU charges and the event queue;
after the reap timeout, on the reap outcomes.
"""

from collections import deque
from dataclasses import replace
from types import SimpleNamespace
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.ddp.headers import OP_SEND, OP_SEND_SE, QN_SEND, DdpSegment, HeaderError
from repro.core.ddp.segmentation import ReassemblyError, UntaggedReassembly, plan_segments
from repro.core.rdmap.engine import UD_REASSEMBLY_TIMEOUT_NS, RdmapRx
from repro.core.verbs.wr import Address, RecvWR, Sge, WcStatus, WorkCompletion, WrOpcode
from repro.memory.region import Access, MemoryAccessError, MemoryRegion
from repro.simnet.engine import MS, Simulator


# -- the oracle: every message through an UntaggedReassembly -------------------

class OracleRx(RdmapRx):
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
            self._rc_current = None
            self.qp.fail_recv(
                WorkCompletion(
                    wr_id=state.wr.wr_id,
                    opcode=WrOpcode.SEND,
                    status=WcStatus.LOCAL_LENGTH_ERROR,
                    byte_len=seg.mo + len(seg.payload),
                    src=src,
                )
            )
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


# -- a queue pair stand-in that records what the engine does -------------------

class _Qp:
    def __init__(self, datagram: bool, max_seg: int, recvs, charges: List[int]):
        self.sim = Simulator()
        self.is_datagram = datagram
        self.max_seg_payload = max_seg
        self.qp_num = 1
        self.host = SimpleNamespace(
            wr_tracer=None,
            cpu=SimpleNamespace(charge=charges.append),
            costs=SimpleNamespace(reassembly_per_byte_ns=0.8),
        )
        self.completions: List[tuple] = []
        self.terminated: List[Tuple[int, str]] = []
        self.buffers: List[bytearray] = []
        self.rq = deque()
        stag = 0x100
        for wr_id, sizes, deregistered in recvs:
            sges = []
            for size in sizes:
                buf = bytearray(size)
                mr = MemoryRegion(stag, buf, Access.full(), pd_handle=1)
                stag += 1
                if deregistered:
                    mr.invalidate()
                self.buffers.append(buf)
                sges.append(Sge(mr))
            self.rq.append(RecvWR(sges=sges, wr_id=wr_id))

    def complete(self, queue: str, wc: WorkCompletion, at_once: bool = False) -> None:
        self.completions.append((
            self.sim.now, queue, at_once, wc.wr_id, wc.status, wc.byte_len, wc.msg_id,
            wc.src, wc.solicited, None if wc.validity is None else wc.validity.ranges(),
        ))

    # OracleRx calls the receive routes by their earlier names.
    def fail_recv(self, wc: WorkCompletion) -> None:
        self.complete("rq", wc, at_once=True)

    def push_rq_completion(self, wc: WorkCompletion) -> None:
        self.complete("rq", wc)

    def terminate(self, reason: str) -> None:
        self.terminated.append((self.sim.now, reason))


def _world(rx_cls, datagram, max_seg, recvs):
    charges: List[int] = []
    qp = _Qp(datagram, max_seg, recvs, charges)
    return rx_cls(qp), qp, charges


def _observe(rx: RdmapRx, qp: _Qp, charges: List[int]):
    sim = qp.sim
    return (
        qp.completions, qp.terminated, [bytes(b) for b in qp.buffers], list(charges),
        [wr.wr_id for wr in qp.rq],
        rx.drops_no_recv_posted, rx.duplicate_segments, rx.drops_malformed,
        rx.reaped_partial, rx.remote_access_errors, rx._rc_expected_msn,
        sorted(rx._ud_untagged), sorted(rx._ud_timers),
        sim.now, sim.events_processed, sim._seq, len(sim._heap), sim.pending(),
    )


# -- random segment streams ----------------------------------------------------------

_SRCS: Tuple[Address, ...] = (("10.0.0.1", 4791), ("10.0.0.2", 4791))


def _payload(msg: int, total: int) -> bytes:
    return bytes((msg * 37 + i) & 0xFF for i in range(total))


@st.composite
def _recvs(draw, count: int):
    out = []
    for wr_id in range(1, count + 1):
        sizes = draw(st.lists(st.integers(0, 400), min_size=1, max_size=2))
        out.append((wr_id, sizes, draw(st.integers(0, 9)) == 0))
    return out


@st.composite
def _messages(draw):
    msgs = []
    for k in range(draw(st.integers(1, 6))):
        total = draw(st.one_of(st.integers(0, 8), st.integers(0, 500)))
        # One segment per message as often as a split.
        seg = draw(st.one_of(st.just(max(1, total)), st.integers(1, max(1, total))))
        opcode = draw(st.sampled_from((OP_SEND, OP_SEND_SE)))
        msgs.append((k + 1, total, seg, opcode))
    return msgs


def _segments(msg, total, seg_size, opcode, **fields) -> List[DdpSegment]:
    data = _payload(msg, total)
    return [
        DdpSegment(opcode, spec.last, data[spec.offset : spec.offset + spec.length],
                   False, qn=QN_SEND, mo=spec.offset, **fields)
        for spec in plan_segments(total, seg_size)
    ]


def _mangle(draw, segs: List[DdpSegment], total: int) -> List[DdpSegment]:
    """Losses, duplicates, flipped LAST flags and overrunning segments,
    each now and then."""
    out = []
    for seg in segs:
        roll = draw(st.integers(0, 19))
        if roll == 0:
            continue  # lost
        out.append(seg)
        if roll == 1:
            out.append(seg)  # duplicated
        elif roll == 2:
            # Past the message's end: the message's own length at a
            # nonzero offset, or longer.
            mo = draw(st.integers(0, 16))
            low = max(0, total + 1 - mo)
            length = draw(st.integers(low, low + 16) if not mo else
                          st.one_of(st.just(total), st.integers(low, low + 16)))
            out.append(DdpSegment(seg.opcode, seg.last, bytes(length), False,
                                  qn=QN_SEND, msn=seg.msn, mo=mo, msg_id=seg.msg_id,
                                  msg_total=seg.msg_total, msg_offset=mo))
        elif roll == 3:
            out[-1] = replace(seg, last=not seg.last)  # a lying LAST flag
    return out


@st.composite
def ud_streams(draw):
    steps = []
    for msg, total, seg_size, opcode in draw(_messages()):
        src = draw(st.sampled_from(_SRCS))
        # Two sources may use the same message id.
        msg_id = draw(st.integers(1, 4))
        segs = _segments(msg, total, seg_size, opcode, msg_id=msg_id, msg_total=total)
        for seg in segs:
            seg.msg_offset = seg.mo
        steps += [("seg", seg, src) for seg in _mangle(draw, segs, total)]
    if draw(st.booleans()):
        steps = draw(st.permutations(steps))
    # Let reap timers fire between some segments.
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(steps)))
        steps.insert(at, ("advance", draw(st.sampled_from((1 * MS, UD_REASSEMBLY_TIMEOUT_NS)))))
    max_seg = draw(st.sampled_from((64, 256, 4096)))
    return steps, max_seg, draw(_recvs(draw(st.integers(0, 8))))


@st.composite
def rc_streams(draw):
    steps = []
    msn = 0
    for msg, total, seg_size, opcode in draw(_messages()):
        msn += 1
        segs = _segments(msg, total, seg_size, opcode, msn=msn)
        for seg in segs:
            roll = draw(st.integers(0, 29))
            if roll == 0:
                seg.msn = draw(st.integers(0, msn + 2))  # out of order (or not)
            elif roll == 1:
                seg.msg_total = draw(st.integers(0, total + 8))  # hostile length
        steps += [("seg", seg, _SRCS[0]) for seg in _mangle(draw, segs, total)]
    return steps, 1 << 30, draw(_recvs(draw(st.integers(0, 7))))


def _drive(datagram: bool, case) -> None:
    steps, max_seg, recvs = case
    live = _world(RdmapRx, datagram, max_seg, recvs)
    oracle = _world(OracleRx, datagram, max_seg, recvs)
    for step in steps:
        for rx, qp, _ in (live, oracle):
            if step[0] == "seg":
                rx.on_segment(step[1], step[2])
            else:
                qp.sim.run(until=qp.sim.now + step[1])
        assert _observe(*live) == _observe(*oracle)
    for _, qp, _ in (live, oracle):
        qp.sim.run()
    assert _observe(*live) == _observe(*oracle)


@settings(max_examples=400, deadline=None)
@given(ud_streams())
def test_ud_receive_matches_the_reassembly_oracle(case):
    _drive(True, case)


@settings(max_examples=300, deadline=None)
@given(rc_streams())
def test_rc_receive_matches_the_reassembly_oracle(case):
    _drive(False, case)
