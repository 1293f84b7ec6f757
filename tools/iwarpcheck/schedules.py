"""Bounded fault-schedule explorer: short scenario-catalogue rows run on
the live stack under every schedule of up to k faults over their first
N frames, with the cross-layer oracles checked on every run.

A schedule pins each fault to a frame index, counting the frames both
hosts offer to their NIC egress from the first one on, the RC
handshake and MPA negotiation included.  ``drop``,
``dup``, ``delay`` (held :data:`DELAY_NS`, so later frames overtake it)
and ``corrupt`` (the last byte of its transport payload flipped: a bit
error no checksum below DDP or MPA catches; a frame with no payload is
dropped, as its header checksum would drop it) act on frame i.
``reset@h`` (``abort()`` host h's LLP, its TCP connection or SCTP
association; RC only), ``close@h`` and ``drain@h`` (SQD) act at the
instant frame i is offered, as a fresh event.  A reset can land in the
handshake or the MPA negotiation; a close or drain acts on host h's QP,
which the pair build hands out only once it is RTS, so one at a frame
offered before that does nothing.
Runs are deterministic, so the row and the schedule replay a
counterexample: ``python -m iwarpcheck explore --row ROW --schedule
3:drop,7:reset@1``.  The oracles (DESIGN.md §7):

* IC400 — the run raised (a verb refused on a QP a fault broke is not
  a finding);
* IC401 — an RC QP in RTS/SQD without an OPERATIONAL MPA stream over
  ESTABLISHED or CLOSE_WAIT TCP;  IC402 — MPA FAILED under a QP not in
  ERROR.  Both read each RC endpoint's (QP, MPA, TCP) composite at the
  end of every simulated instant, never inside a callback chain;
* IC403 — a receive WR not completed exactly once; on a reliable row
  (RC over TCP or SCTP, RD) a host's receive completions (wr_id,
  status, byte_len, placed bytes, in CQ order) that are not a prefix
  of the fault-free run's followed only by non-SUCCESS ones;
* IC405 — a Write-Record completion without its LAST segment, or with
  a validity map other than the union of the ranges that arrived;
* IC406 — a UD or RD completion whose source is not the peer QP;
* IC407 — a signaled send or a Read not completed exactly once (unless
  still outstanding on an RTS QP), an unsignaled send completed, or a
  send completed SUCCESS before its message reached the point that
  earns it: RC, its LAST segment handed to the LLP while the QP was
  not in ERROR; UD, handed to UDP; RD, delivered at the peer (RD's
  cumulative ACK comes after that).
"""

from __future__ import annotations

import traceback
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.bench import scenarios
from repro.bench.harness import BenchError, VerbsEndpointPair
from repro.core import fsm
from repro.core.ddp.headers import OP_SEND, OP_SEND_SE, OP_WRITE_RECORD, decode_segment
from repro.core.mpa.crc import CRC_SIZE
from repro.core.verbs import WcStatus, WorkCompletion, WrOpcode
from repro.core.verbs.qp import ERROR, RTS, SQD, QpError, RcQp
from repro.simnet.engine import SEC, US, SimulationError, Simulator
from repro.simnet.faults import Emission, FaultModel
from repro.simnet.packet import Frame
from repro.transport.ip import IpPacket

#: The bound ``make explore`` runs: every schedule of up to
#: MAX_FAULTS faults over the first MAX_FRAMES frames of each row.
MAX_FAULTS = 2
MAX_FRAMES = 24
ROWS: Tuple[str, ...] = tuple(
    f"explore-{mode}"
    for mode in ("rc_sendrecv", "rcsctp_sendrecv", "rd_sendrecv", "ud_write_record",
                 "ud_sendrecv")
)

#: Hold time of a delayed frame: a few MTU frames' wire time.
DELAY_NS = 50 * US

FRAME_FAULTS = ("drop", "dup", "delay", "corrupt")

Fault = Tuple[int, str]
Schedule = Tuple[Fault, ...]
Composite = Tuple[str, str, str]
Violations = List[Tuple[str, str]]
#: Per host, its receive completions: (wr_id, status, byte_len, bytes placed).
Delivered = Tuple[Tuple[Tuple[int, WcStatus, int, bytes], ...], ...]


@dataclass(frozen=True)
class Finding:
    """One oracle violation: ``machine`` is the row it ran on, ``rule``
    the IC4xx code, and ``message`` names the schedule that replays it."""

    machine: str
    rule: str
    message: str


def fault_kinds(row: str) -> Tuple[str, ...]:
    """The faults that can sit at one frame index of ``row``."""
    steps: Tuple[str, ...] = ("reset", "close", "drain")
    if not scenarios.SCENARIOS[row].mode.startswith("rc"):
        steps = steps[1:]
    return FRAME_FAULTS + tuple(f"{step}@{host}" for step in steps for host in (0, 1))


def render(schedule: Schedule) -> str:
    return ",".join(f"{index}:{kind}" for index, kind in schedule) or "-"


def parse(text: str, row: str) -> Schedule:
    """The schedule :func:`render` wrote for ``row`` (``-`` is the
    empty one); ValueError if it names a fault the row has not."""
    if text.strip() in ("", "-"):
        return ()
    faults = []
    for item in text.split(","):
        index, _, kind = item.strip().partition(":")
        if kind not in fault_kinds(row):
            raise ValueError(f"no fault {kind!r} on row {row}")
        faults.append((int(index), kind))
    return tuple(sorted(faults))


# -- the schedule as a fault stage ------------------------------------------------


def _corrupt(frame: Frame) -> Optional[Frame]:
    packet = frame.payload
    upper = packet.payload
    name = "data" if getattr(upper, "data", b"") else "payload"
    data = getattr(upper, name, b"")
    if not data:
        return None
    upper = replace(upper, **{name: data[:-1] + bytes([data[-1] ^ 0xFF])})
    copy = IpPacket(
        packet.src, packet.dst, packet.proto, upper, packet.total_size,
        packet.ident, packet.frag_offset, packet.frag_size, packet.more_frags,
    )
    return Frame(frame.src, frame.dst, copy, frame.payload_size)


class _ScheduleStage(FaultModel):
    """One schedule, in both hosts' injector slots: ``seen`` numbers
    the frames in the order they are offered."""

    def __init__(self, schedule: Schedule, step: Callable[[str], None]) -> None:
        super().__init__()
        self.faults = dict(schedule)
        self.step = step

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        kind = self.faults.get(self.seen - 1)
        if kind == "drop":
            return []
        if kind == "dup":
            return [(0, frame), (0, frame)]
        if kind == "delay":
            return [(DELAY_NS, frame)]
        if kind == "corrupt":
            bad = _corrupt(frame)
            return [] if bad is None else [(0, bad)]
        if kind is not None:
            self.step(kind)
        return [(0, frame)]


# -- what a run observes ---------------------------------------------------------


class _Composites:
    """Each host's LLP (its TCP connection or SCTP association, as it
    first moves), and each RC-over-TCP endpoint's (QP, MPA, TCP)
    states, keyed by its TCP connection; IC401/IC402 over the
    composites each instant ends with.

    The states only move through :func:`repro.core.fsm.transition`,
    which hands its observers every object that moves, so the
    composites the last move of an instant left are the ones the
    instant ends with.  Objects are found as they first move; one that
    has not moved yet is still in its initial state, and the composite
    before an endpoint's first move is counted too."""

    def __init__(self, sim: Simulator, violations: Violations) -> None:
        self.sim = sim
        self.violations = violations
        self.endpoints: Dict[int, List[Any]] = {}   # id(conn) -> [conn, mpa, qp]
        self.llps: Dict[int, Any] = {}              # host -> connection or association
        self.reached: Set[Composite] = set()
        self._instant = -1
        self._latest: List[Tuple[Any, Composite]] = []

    def observe(self, name: str, src: str, dst: str, obj: Any) -> None:
        if self.sim.now != self._instant:
            self.end_instant()
            self._instant = self.sim.now
        if name in ("TCP", "SCTP"):
            self.llps.setdefault(obj.stack.host.host_id, obj)
        if name == "QP" and isinstance(obj, RcQp) and hasattr(obj, "mpa"):
            conn, mpa, qp = obj.mpa.sock.conn, obj.mpa, obj
        elif name == "MPA":
            conn, mpa, qp = obj.sock.conn, obj, None
        elif name == "TCP":
            conn, mpa, qp = obj, None, None
        else:
            return
        endpoint = self.endpoints.get(id(conn))
        if endpoint is None:
            endpoint = self.endpoints[id(conn)] = [conn, mpa, qp]
            before = list(self._composite(endpoint))
            before[("QP", "MPA", "TCP").index(name)] = src
            self.reached.add((before[0], before[1], before[2]))
        endpoint[1] = mpa or endpoint[1]
        endpoint[2] = qp or endpoint[2]
        self._latest = [(ep[0], self._composite(ep)) for ep in self.endpoints.values()]

    @staticmethod
    def _composite(endpoint: List[Any]) -> Composite:
        conn, mpa, qp = endpoint
        return (
            "RESET" if qp is None else qp.state,
            "NEGOTIATING" if mpa is None else mpa.state,
            conn.state,
        )

    def end_instant(self) -> None:
        for conn, composite in self._latest:
            self.reached.add(composite)
            qp, mpa, tcp = composite
            where = f"{conn.stack.host.name} at t={self._instant}: {'/'.join(composite)}"
            if qp in (RTS, SQD) and (
                mpa != "OPERATIONAL" or tcp not in ("ESTABLISHED", "CLOSE_WAIT")
            ):
                self.violations.append(("IC401", where))
            if mpa == "FAILED" and qp != ERROR:
                self.violations.append(("IC402", where))
        self._latest = []


def _tap(
    fn: Callable[..., None], note: Callable[..., None], after: bool = False
) -> Callable[..., None]:
    """``fn``, calling ``note`` with the same arguments before it (or
    after it, so that a call ``fn`` refuses is not noted)."""
    def tapped(*args: Any, **kwargs: Any) -> None:
        if not after:
            note(*args, **kwargs)
        fn(*args, **kwargs)
        if after:
            note(*args, **kwargs)
    return tapped


def _union(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        elif end > start:
            out.append((start, end))
    return out


class _Ledger:
    """Every WR posted and completion pushed on both hosts, what each
    receive completion placed, the Write-Record segments each receive
    engine was handed, and the messages that reached the point a send's
    SUCCESS needs; IC403 and IC405–IC407."""

    def __init__(self, pair: VerbsEndpointPair, violations: Violations) -> None:
        self.pair = pair
        self.violations = violations
        self.sends: List[List[Any]] = [[], []]
        self.recvs: List[Dict[int, Any]] = [{}, {}]  # wr_id -> receive WR
        self.completions: List[List[WorkCompletion]] = [[], []]
        self.delivered: List[List[Tuple[int, WcStatus, int, bytes]]] = [[], []]
        # (source, msg_id) -> (ranges arrived since its last completion, LAST seen)
        self.logs: Dict[Tuple[Any, int], Tuple[List[Tuple[int, int]], bool]] = {}
        # Per host: the send WRs whose SUCCESS is checked, by wr_id, with
        # the key of their message (an RC Send's MSN; on a datagram QP
        # None: the completion's msg_id), and the keys of the messages
        # that have earned a SUCCESS so far.
        self.posted: List[Dict[int, Optional[int]]] = [{}, {}]
        self.msns = [0, 0]
        self.earned: List[Set[Any]] = [set(), set()]
        for host, qp in enumerate(pair.qps):
            qp.post_send = _tap(qp.post_send, partial(self._posted, host), after=True)
            recvs = self.recvs[host]
            qp.post_recv = _tap(qp.post_recv, lambda wr, r=recvs: r.update({wr.wr_id: wr}), True)
            cq = pair.cqs[host]
            cq.push = _tap(cq.push, partial(self._pushed, host))
            if pair.mode.endswith("write_record"):
                qp.rx.on_segment = _tap(qp.rx.on_segment, self._segment)
                qp.complete = _tap(qp.complete, self._write_record)
            if not qp.is_datagram:
                qp._llp_send = _tap(qp._llp_send, partial(self._to_llp, host, qp))
            elif qp.rd is None:
                sock = qp._udp_sock
                sock.sendto_uncharged = _tap(sock.sendto_uncharged, partial(self._reached, host))
            else:
                peer = pair.qps[1 - host].rd
                peer.on_message = _tap(peer.on_message, partial(self._reached, host))

    # -- IC407: what earns a send SUCCESS --------------------------------

    def _posted(self, host: int, wr: Any) -> None:
        self.sends[host].append(wr)
        if self.pair.qps[host].is_datagram:
            self.posted[host][wr.wr_id] = None
        elif wr.opcode in (WrOpcode.SEND, WrOpcode.SEND_SE):
            self.msns[host] += 1
            self.posted[host][wr.wr_id] = self.msns[host]

    def _to_llp(self, host: int, qp: Any, data: bytes) -> None:
        seg = decode_segment(data, ud=False)
        if seg.last and not seg.tagged and seg.opcode in (OP_SEND, OP_SEND_SE) \
                and qp.state != ERROR:
            self.earned[host].add(seg.msn)

    def _reached(self, host: int, data: bytes, addr: Any) -> None:
        """A datagram from host ``host`` was handed to UDP (UD) or
        delivered at the peer (RD)."""
        seg = decode_segment(data[:-CRC_SIZE], ud=True)
        if seg.last:
            self.earned[host].add(seg.msg_id)

    def _pushed(self, host: int, wc: WorkCompletion) -> None:
        self.completions[host].append(wc)
        recv = self.recvs[host].get(wc.wr_id)
        if recv is not None:
            placed = b"".join(sge.mr.view(sge.offset, sge.length) for sge in recv.sges)
            self.delivered[host].append((wc.wr_id, wc.status, wc.byte_len, placed[:wc.byte_len]))
            return
        posted = self.posted[host]
        if wc.status is not WcStatus.SUCCESS or wc.wr_id not in posted \
                or wc.opcode is WrOpcode.RDMA_READ:
            return
        key = posted[wc.wr_id]
        if key is None:
            key = wc.msg_id
        if key not in self.earned[host]:
            self.violations.append(
                ("IC407", f"host {host} send wr_id={wc.wr_id} completed SUCCESS before "
                          f"its message reached {self._earns(host)}")
            )

    def _earns(self, host: int) -> str:
        qp = self.pair.qps[host]
        if not qp.is_datagram:
            return "the LLP on a QP not in ERROR"
        return "UDP" if qp.rd is None else "the peer"

    def _segment(self, seg: Any, src: Any) -> None:
        if seg.tagged and seg.opcode == OP_WRITE_RECORD:
            ranges, last = self.logs.get((src, seg.msg_id), ([], False))
            ranges.append((seg.msg_offset, seg.msg_offset + len(seg.payload)))
            self.logs[(src, seg.msg_id)] = (ranges, last or seg.last)

    def _write_record(self, queue: str, wc: WorkCompletion, at_once: bool = False) -> None:
        if queue != "rq" or wc.opcode is not WrOpcode.RDMA_WRITE_RECORD:
            return
        ranges, last = self.logs.pop((wc.src, wc.msg_id), ([], False))
        what = f"Write-Record msg_id={wc.msg_id} from {wc.src}"
        if not last:
            self.violations.append(("IC405", f"{what} completed before its LAST segment arrived"))
        valid = _union([(at, at + n) for at, n in (wc.validity or ())])
        if valid != _union(ranges):
            self.violations.append(
                ("IC405", f"{what}: validity {valid} != arrived {_union(ranges)}")
            )

    def check(self, reference: Optional[Delivered]) -> None:
        """The oracles read after teardown; ``reference`` is the
        fault-free run's :attr:`delivered` (None: this run is it)."""
        pair = self.pair
        for host, qp in enumerate(pair.qps):
            times = Counter(wc.wr_id for wc in self.completions[host])
            for wr in self.sends[host]:
                n = times[wr.wr_id]
                owed = wr.signaled or wr.opcode is WrOpcode.RDMA_READ
                if n != (1 if owed else 0) and not (owed and n == 0 and qp.state == RTS):
                    what = "signaled" if wr.signaled else "unsignaled"
                    self.violations.append(
                        ("IC407", f"host {host} {what} {wr.opcode.name} wr_id={wr.wr_id} "
                                  f"completed {n} times (QP {qp.state})")
                    )
            for wr_id in self.recvs[host]:
                if times[wr_id] != 1:
                    self.violations.append(("IC403", f"host {host} receive wr_id={wr_id} "
                                                     f"completed {times[wr_id]} times"))
            # The contract: up to its last SUCCESS, the fault-free run's.
            got, ref = self.delivered[host], reference[host] if reference else ()
            last = max((i + 1 for i, d in enumerate(got) if d[1] is WcStatus.SUCCESS), default=0)
            bad = next((i for i in range(last) if i >= len(ref) or got[i] != ref[i]), None)
            if reference and bad is not None and (qp.rd is not None or not qp.is_datagram):
                wr_id, status, size, _ = got[bad]
                self.violations.append(
                    ("IC403", f"host {host} receive completion #{bad} (wr_id={wr_id} {status.name} "
                              f"{size} B) is not the fault-free run's, yet #{last - 1} is SUCCESS")
                )
            if not qp.is_datagram:
                continue
            peer = pair.qps[1 - host].address
            sends = {wr.wr_id for wr in self.sends[host]}
            for wc in self.completions[host]:
                if wc.wr_id not in sends and wc.status is not WcStatus.FLUSHED \
                        and wc.src != peer:
                    self.violations.append(
                        ("IC406", f"host {host} {wc.opcode.name} msg_id={wc.msg_id} "
                                  f"reports source {wc.src}, peer is {peer}")
                    )


# -- running and exploring --------------------------------------------------------


def _unless_refused(call: Callable[[], Any]) -> bool:
    """``call()``, and whether it returned: the harness giving up on a
    run a fault broke, or a verb refused on a QP a fault errored or
    drained, ends it early instead."""
    try:
        call()
    except BenchError:
        return False
    except QpError as exc:
        if not str(exc).startswith(("post_send", "post_recv")):
            raise
        return False
    return True


@dataclass
class Run:
    """One row under one schedule."""

    row: str
    schedule: Schedule
    frames: int
    setup: int  # of ``frames``, those offered while the pair was connected
    composites: Set[Composite]
    findings: List[Finding]
    delivered: Delivered


def run_schedule(
    row: str, schedule: Schedule, reference: Optional[Delivered] = None
) -> Run:
    """Run catalogue row ``row`` under ``schedule`` as
    :func:`repro.bench.scenarios.run` runs it (build, workload, both QPs
    closed, one more simulated second) and check it against
    ``reference``, the fault-free run's receive completions (run first
    if not given; the fault-free run is its own).  A build that a
    fault stops from connecting ends the run there, unchecked by the
    ledger: no WR was posted."""
    if schedule and reference is None:
        reference = run_schedule(row, ()).delivered
    spec = scenarios.SCENARIOS[row]
    sim = Simulator()
    violations: Violations = []
    composites = _Composites(sim, violations)
    fsm.add_transition_observer(composites.observe)
    pair: Optional[VerbsEndpointPair] = None
    ledger: Optional[_Ledger] = None

    def step(kind: str) -> None:
        name, _, host = kind.partition("@")
        if name == "reset":
            llp = composites.llps.get(int(host))
            if llp is not None:
                sim.call_at(sim.now, llp.abort)
        elif pair is not None:  # before the build, no QP to close or drain
            qp = pair.qps[int(host)]
            drain = lambda: qp.state == RTS and qp.modify_qp(SQD)  # noqa: E731
            sim.call_at(sim.now, qp.close if name == "close" else drain)

    stage = _ScheduleStage(schedule, step)
    setup = 0
    try:
        try:
            pair = scenarios.build(spec, sim, faults=stage)
        except (BenchError, SimulationError):
            pass  # the handshake or negotiation a fault broke gave up
        setup = stage.seen
        if pair is not None:
            ledger = _Ledger(pair, violations)
            _unless_refused(scenarios.workload(spec, pair))
            for qp in pair.qps:
                qp.close()
        end = sim.now + SEC
        # A harness process the workload left behind may still post.
        while not _unless_refused(lambda: sim.run(until=end)):
            pass
        composites.end_instant()
        if ledger is not None:
            ledger.check(reference)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        where = traceback.extract_tb(exc.__traceback__)[-1]
        violations.append(
            ("IC400", f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})")
        )
    finally:
        fsm.remove_transition_observer(composites.observe)
    label = render(schedule)
    findings = [Finding(row, rule, f"schedule {label}: {detail}") for rule, detail in violations]
    delivered = tuple(map(tuple, ledger.delivered)) if ledger is not None else ((), ())
    return Run(row, schedule, stage.seen, setup, composites.reached, findings, delivered)


def explore(
    row: str, max_faults: int = MAX_FAULTS, max_frames: int = MAX_FRAMES
) -> Iterator[Run]:
    """Every schedule of up to ``max_faults`` faults over the first
    ``max_frames`` frames of ``row``, fewest faults first.  A schedule
    is only extended at frame indices its own run reached, and with a
    close or drain only at frames offered once the pair was built:
    anywhere else the fault would do nothing and repeat a run.  The
    first run, fault-free, is every later run's reference."""
    kinds = fault_kinds(row)
    early = tuple(kind for kind in kinds if not kind.startswith(("close@", "drain@")))
    queue: Deque[Schedule] = deque([()])
    reference: Optional[Delivered] = None
    while queue:
        schedule = queue.popleft()
        run = run_schedule(row, schedule, reference)
        reference = reference or run.delivered
        yield run
        if len(schedule) < max_faults:
            start = schedule[-1][0] + 1 if schedule else 0
            for index in range(start, min(max_frames, run.frames)):
                at = kinds if index >= run.setup else early
                queue.extend(schedule + ((index, kind),) for kind in at)
