"""The benchmark's four workloads, built from the paper's figures.

Every workload is a list of *legs*.  A leg builds a fresh testbed through
the public build calls, runs one closed-loop scenario to completion and
returns a :class:`LegResult`: the simulated outputs (checked against
``reference.json``), deterministic counters, and wall-clock samples.  A
round runs every leg of a workload once; a run repeats rounds.

The command-line seed makes the inputs: the payload bytes every message
carries and the order of legs within each round.  Neither may change a
simulated result, so one reference serves every seed.  SIP user names
stay fixed (``user<i>``, as in ``repro.apps.sip.workload``): the SIP
From-tag hashes the name, so a different name can change message sizes.
Loss and fault patterns are fixed per leg (seeds 11 and 5, as in the
figure benchmarks) because they are part of the scenario.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, List

from repro.apps.sip import client as sip_client
from repro.apps.sip.client import SipClient
from repro.apps.sip.workload import SIP_PORT, build_sip_testbed
from repro.bench.harness import POLL_TIMEOUT_NS, VerbsEndpointPair
from repro.core.verbs import RecvWR, SendWR, Sge, WcStatus, WrOpcode
from repro.memory.accounting import FootprintModel
from repro.simnet.engine import MS, SEC, US
from repro.simnet.faults import seeded_chaos
from repro.simnet.loss import BernoulliLoss

clock = time.perf_counter

#: Context-manager factory wrapped around every measured phase (the
#: tracer's recording switch in traced rounds).
Phase = Callable[[], ContextManager]

#: Largest message any leg sends.
PAYLOAD_BYTES = 256 * 1024

LOSS_SEED = 11
CHAOS_SEED = 5

#: Empty CQ polls (of POLL_TIMEOUT_NS each) after the sender finished
#: before a lossy stream is declared over, as in the fig07/08 harness.
QUIET_POLLS = 15


#: Probe time at the reference machine speed: the probe's typical time on
#: an unloaded core of the 2-vCPU x86-64 VM the benchmark was tuned on.
REFERENCE_PROBE_S = 0.0025


def _probe_work() -> None:
    heap: list = []
    table: dict = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 255] = i
    while heap:
        heapq.heappop(heap)


def slowdown() -> float:
    """How much slower than the reference speed the machine runs right
    now, from the wall time of a fixed pure-Python probe (heap and dict
    work, like the event loop's).  On a shared machine the CPU's speed
    drifts by 2-3x over seconds; timing the same probe around every
    timed phase lets the benchmark report times at one fixed speed."""
    t0 = clock()
    _probe_work()
    return (clock() - t0) / REFERENCE_PROBE_S


def timed(fn: Callable[[], object]):
    """``fn()``'s result, raw wall seconds, and the slowdown measured by
    probes just before and just after it."""
    before = slowdown()
    t0 = clock()
    result = fn()
    wall = clock() - t0
    return result, wall, (before + slowdown()) / 2


def make_payload(seed: int) -> bytes:
    return random.Random(seed).randbytes(PAYLOAD_BYTES)


@dataclass
class LegResult:
    #: Simulated results; must equal the leg's entry in reference.json.
    outputs: Dict[str, object]
    #: Deterministic counters over the measured phase; must repeat
    #: exactly between rounds, seeds and traced/untraced runs.
    counts: Dict[str, int]
    #: Times are wall seconds rescaled to the reference speed (raw wall
    #: divided by the slowdown measured around the phase).
    setup_s: float
    wall_s: float
    #: Seconds per closed-loop operation (round trip, gap between
    #: receive completions, or SIP call), rescaled like ``wall_s``.
    op_walls: List[float]
    ops: int
    msgs: int
    payload_bytes: int
    #: Operations that completed with an error status or wrong data.
    errors: int = 0
    #: Unscaled wall seconds of the measured phase.
    raw_wall_s: float = 0.0


@dataclass
class Leg:
    name: str
    run: Callable[[bytes, Phase], LegResult]


@dataclass
class Workload:
    name: str
    legs: List[Leg]
    #: Paper-shape checks over one round: ``{leg: outputs} -> [problems]``.
    shape: Callable[[Dict[str, Dict[str, object]]], List[str]]


# ----------------------------------------------------------------------
# Counters read from public testbed attributes
# ----------------------------------------------------------------------

def _ports(testbed) -> list:
    ports = [h.port for h in testbed.hosts]
    if testbed.switch is not None:
        ports += testbed.switch.ports
    return ports


def testbed_counts(testbed) -> Dict[str, int]:
    ports = _ports(testbed)
    return {
        "frames": sum(p.tx_frames for p in ports),
        "events": testbed.sim.events_processed,
        "cpu_busy_ns": sum(h.cpu.busy_ns for h in testbed.hosts),
        "drops": sum(p.drops_queue_full + p.drops_loss_model + p.drops_fault for p in ports),
        "injections": sum(
            p.drops_loss_model + p.drops_fault + p.dup_frames + p.held_frames for p in ports
        ),
        "ip_packets": sum(h.protocol("ip").tx_packets for h in testbed.hosts),
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def _measure(testbed, body: Callable[[], None], phase: Phase):
    """Run ``body`` as the measured phase; returns (raw wall seconds,
    slowdown, counts)."""
    before = testbed_counts(testbed)

    def measured() -> None:
        with phase():
            body()

    _, wall, slow = timed(measured)
    counts = _delta(testbed_counts(testbed), before)
    counts["queue_hwm"] = max(p.queue_hwm for p in _ports(testbed))
    return wall, slow, counts


def _build_pair(mode: str, loss_rate: float = 0.0, chaos: bool = False):
    """Build a verbs pair; returns (pair, rescaled setup seconds)."""

    def build():
        loss = BernoulliLoss(loss_rate, seed=LOSS_SEED) if loss_rate else None
        pair = VerbsEndpointPair.build(mode, loss=loss)
        if chaos:
            pair.testbed.set_egress_faults(0, seeded_chaos(
                CHAOS_SEED, loss=BernoulliLoss(0.01, seed=CHAOS_SEED),
                reorder_prob=0.02, reorder_hold_ns=20 * US, dup_prob=0.01,
            ))
        return pair

    gc.collect()  # keep collector pauses out of the timed phases
    pair, wall, slow = timed(build)
    return pair, wall / slow


# ----------------------------------------------------------------------
# Verbs message helpers (public API only)
# ----------------------------------------------------------------------

class _Verbs:
    """Message helpers for one leg, over the public verbs API, with every
    per-message constant looked up once (so the driver stays a small
    share of a traced run)."""

    def __init__(self, pair, size: int, payload: bytes):
        self.pair = pair
        self.size = size
        self.expected = payload[:size]
        for mr in pair.send_mrs:
            mr.view()[:size] = self.expected
        mode = pair.mode
        self.sendrecv = mode.endswith("sendrecv")
        if self.sendrecv:
            self.post_opcode = WrOpcode.SEND
        elif mode.endswith("write_record"):
            self.post_opcode = WrOpcode.RDMA_WRITE_RECORD
        else:  # rc_rdma_write: the target polls the flag byte at the end
            self.post_opcode = WrOpcode.RDMA_WRITE
        #: Opcode of the receive completion that carries a message.
        self.opcode = WrOpcode.SEND if self.sendrecv else self.post_opcode
        # Indexed by the sending host.
        self.dest = [pair.dest(1), pair.dest(0)]
        self.stag = [0, 0] if self.sendrecv else [pair.sinks[1].stag, pair.sinks[0].stag]
        landing = pair.recv_mrs if self.sendrecv else pair.sinks
        #: Indexed by the receiving host.
        self.views = [mr.view() for mr in landing]

    def post(self, src: int, signaled: bool = False) -> None:
        self.pair.qps[src].post_send(SendWR(
            opcode=self.post_opcode, sges=[Sge(self.pair.send_mrs[src], 0, self.size)],
            dest=self.dest[src], remote_stag=self.stag[src], signaled=signaled,
        ))

    def post_recvs(self, host: int, count: int) -> None:
        """Full buffers for send/recv, empty ones for RC Write; none for
        Write-Record, which is the point of the operation."""
        qp = self.pair.qps[host]
        if self.sendrecv:
            mr = self.pair.recv_mrs[host]
            for _ in range(count):
                qp.post_recv(RecvWR(sges=[Sge(mr, 0, max(self.size, 1))]))
        elif self.post_opcode is WrOpcode.RDMA_WRITE:
            for _ in range(count):
                qp.post_recv(RecvWR(sges=[]))

    def intact(self, host: int, validity=None) -> bool:
        """Do the delivered bytes (or the valid ranges of them) match?"""
        # bytes() first: comparing a memoryview goes element by element.
        view, expected = self.views[host], self.expected
        if validity is None:
            return bytes(view[:len(expected)]) == expected
        return all(bytes(view[o:o + n]) == expected[o:o + n] for o, n in validity.ranges())


# ----------------------------------------------------------------------
# Leg kinds
# ----------------------------------------------------------------------

def stream_leg(name: str, mode: str, size: int, messages: int, window: int,
               loss_rate: float = 0.0, chaos: bool = False) -> Leg:
    """One-way streaming with ``window`` signaled sends outstanding (the
    fig06-08 bandwidth loop).  Operation: one delivered message."""

    def run(payload: bytes, phase: Phase) -> LegResult:
        pair, setup = _build_pair(mode, loss_rate, chaos)
        sim = pair.sim
        verbs = _Verbs(pair, size, payload)
        opcode = verbs.opcode
        st = {"done": False, "complete": 0, "partial": 0, "bytes": 0, "errors": 0,
              "t_first": None, "t_last": None}
        gaps: List[float] = []

        def sender():
            outstanding = sent = 0
            while sent < messages:
                if outstanding >= window:
                    wcs = yield pair.cqs[0].poll_wait(timeout_ns=POLL_TIMEOUT_NS)
                    outstanding -= len(wcs)
                    continue
                verbs.post(0, signaled=True)
                outstanding += 1
                sent += 1
                yield 0
            st["done"] = True

        def receiver():
            verbs.post_recvs(1, messages + window)
            empty = 0
            last = clock()
            while True:
                wcs = yield pair.cqs[1].poll_wait(timeout_ns=POLL_TIMEOUT_NS)
                if not wcs:
                    empty += 1
                    if st["done"] and empty >= QUIET_POLLS:
                        return
                    continue
                empty = 0
                now = clock()
                gaps.append(now - last)
                last = now
                wc = wcs[0]
                if wc.ok and wc.opcode is opcode:
                    st["complete"] += 1
                    nbytes = size if not wc.validity else wc.validity.valid_bytes()
                elif wc.status is WcStatus.PARTIAL_MESSAGE and opcode is WrOpcode.RDMA_WRITE_RECORD:
                    st["partial"] += 1
                    nbytes = wc.byte_len
                else:
                    st["errors"] += 1
                    continue
                if not verbs.intact(1, wc.validity):
                    st["errors"] += 1
                st["bytes"] += nbytes
                if st["t_first"] is None:
                    st["t_first"] = sim.now
                st["t_last"] = sim.now
                if st["complete"] + st["partial"] >= messages:
                    return

        def body():
            sim.process(sender())
            sim.run_until(sim.process(receiver()).finished, limit=3000 * SEC)

        wall, slow, counts = _measure(pair.testbed, body, phase)
        delivered = st["complete"] + st["partial"]
        span_ns = (st["t_last"] or 0) - (st["t_first"] or 0)
        outputs = {
            "complete": st["complete"], "partial": st["partial"], "bytes": st["bytes"],
            "sim_ns": sim.now, "frames": counts["frames"],
            "sim_mbs": (st["bytes"] - min(st["bytes"], size)) / span_ns * 1e3 if span_ns else 0.0,
        }
        rd = getattr(pair.qps[0], "rd", None)
        if rd is not None:
            stats = rd.stats()
            for key in ("retransmissions", "fast_retransmits", "timeouts"):
                outputs["rd_" + key] = stats[key]
            counts["rudp_timeouts"] = stats["timeouts"]
        counts["wr_completions"] = delivered if opcode is WrOpcode.RDMA_WRITE_RECORD else 0
        counts["wr_partial"] = st["partial"]
        return LegResult(outputs, counts, setup, wall / slow, [g / slow for g in gaps],
                         delivered, delivered, st["bytes"], st["errors"], wall)

    return Leg(name, run)


def pingpong_leg(name: str, mode: str, size: int, iters: int, warmup: int = 3) -> Leg:
    """Ping-pong: host 1 bounces every arrival back (the fig05 loop,
    same arrival rules as the harness).  Operation: one round trip."""

    def run(payload: bytes, phase: Phase) -> LegResult:
        pair, setup = _build_pair(mode)
        sim = pair.sim
        verbs = _Verbs(pair, size, payload)
        opcode = verbs.opcode
        rtts: List[int] = []
        walls: List[float] = []
        errors = [0]

        # The arrival rules of the harness: a data completion from the CQ,
        # or, for RC RDMA Write, the flag byte at the end of the extent.
        # One arrival per host is outstanding at a time.
        waiting = [None, None]

        def make_on_wcs(host: int):
            cq = pair.cqs[host]

            def on_wcs(wcs):
                fut = waiting[host]
                if not wcs:
                    if not fut.done:
                        fut.set_result(None)
                elif wcs[0].ok and wcs[0].opcode is opcode:
                    if not fut.done:
                        fut.set_result(verbs.intact(host))
                else:
                    cq.poll_wait(timeout_ns=POLL_TIMEOUT_NS).add_callback(on_wcs)

            return on_wcs

        on_wcs = [make_on_wcs(0), make_on_wcs(1)]

        def arrival(host: int):
            fut = waiting[host] = sim.future()
            if mode != "rc_rdma_write":
                pair.cqs[host].poll_wait(timeout_ns=POLL_TIMEOUT_NS).add_callback(on_wcs[host])
                return fut
            sink = pair.sinks[host]
            handle = {}

            def fire(_off, _len):
                sink.remove_write_watch(handle["h"])
                host_obj = pair.devices[host].host
                host_obj.cpu.charge(host_obj.costs.poll_ns)
                if not fut.done:
                    fut.set_result(verbs.intact(host))

            handle["h"] = sink.add_write_watch(max(size - 1, 0), 1, fire)
            return fut

        def echo():
            verbs.post_recvs(1, iters + warmup + 8)
            for _ in range(iters + warmup):
                ok = yield arrival(1)
                if ok is None:
                    return
                errors[0] += not ok
                verbs.post(1)

        def ping():
            verbs.post_recvs(0, iters + warmup + 8)
            for i in range(iters + warmup):
                t_sim = sim.now
                t_wall = clock()
                fut = arrival(0)
                verbs.post(0)
                ok = yield fut
                if ok is None:
                    errors[0] += 1
                    return
                errors[0] += not ok
                if i >= warmup:
                    walls.append(clock() - t_wall)
                    rtts.append(sim.now - t_sim)

        def body():
            sim.process(echo())
            sim.run_until(sim.process(ping()).finished, limit=600 * SEC)

        wall, slow, counts = _measure(pair.testbed, body, phase)
        trips = len(rtts) + warmup
        outputs = {
            "one_way_us": sum(rtts) / len(rtts) / 2 / 1000.0 if rtts else 0.0,
            "round_trips": trips, "sim_ns": sim.now, "frames": counts["frames"],
        }
        counts["wr_completions"] = counts["wr_partial"] = 0
        return LegResult(outputs, counts, setup, wall / slow, [w / slow for w in walls],
                         trips, 2 * trips, 2 * trips * size, errors[0], wall)

    return Leg(name, run)


class _CountingApi:
    """Socket-interface proxy that tallies the SIP messages and bytes
    handed to it; every other call passes straight through."""

    def __init__(self, api, tally: Dict[str, int]):
        self._api = api
        self._tally = tally

    def sendto(self, fd, data, addr):
        self._tally["msgs"] += 1
        self._tally["bytes"] += len(data)
        return self._api.sendto(fd, data, addr)

    def send(self, fd, data):
        self._tally["msgs"] += 1
        self._tally["bytes"] += len(data)
        return self._api.send(fd, data)

    def __getattr__(self, name):
        return getattr(self._api, name)


def _build_sip(mode: str, **kwargs):
    # Call-IDs come from a process-wide counter; their length is part of
    # every SIP message, so each leg restarts it to stay reproducible.
    sip_client._call_ids = itertools.count(1)
    gc.collect()
    bed, wall, slow = timed(lambda: build_sip_testbed(mode, **kwargs))
    setup = wall / slow
    tally = {"msgs": 0, "bytes": 0}
    bed.server.api = _CountingApi(bed.server_api, tally)
    return bed, setup, tally, _CountingApi(bed.client_api, tally)


def sip_calls_leg(name: str, mode: str, calls: int) -> Leg:
    """Fig. 10: sequential calls with a 1 ms idle gap, as in
    ``measure_response_time``.  Operation: one call."""

    def run(payload: bytes, phase: Phase) -> LegResult:
        bed, setup, tally, client_api = _build_sip(mode, pool_slots=4)
        sim = bed.sim
        times: List[int] = []
        walls: List[float] = []
        st = {"failed": 0, "completed": 0}

        def driver():
            for i in range(calls):
                client = SipClient(client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                                   mode=mode, user=f"user{i}")
                t_wall = clock()
                yield client.run_call().finished
                walls.append(clock() - t_wall)
                st["failed"] += client.failed
                st["completed"] += client.calls_completed
                times.extend(client.response_times_ns)
                yield 1 * MS

        def body():
            sim.run_until(sim.process(driver()).finished, limit=600 * SEC)

        wall, slow, counts = _measure(bed.testbed, body, phase)
        outputs = {
            "mean_ms": sum(times) / len(times) / 1e6 if times else 0.0,
            "completed": st["completed"], "requests": bed.server.requests_handled,
            "sip_bytes": tally["bytes"], "sim_ns": sim.now, "frames": counts["frames"],
        }
        counts["wr_completions"] = counts["wr_partial"] = 0
        counts["memory_hwm"] = bed.meter.high_water
        return LegResult(outputs, counts, setup, wall / slow, [w / slow for w in walls],
                         calls, tally["msgs"], tally["bytes"], st["failed"], wall)

    return Leg(name, run)


def sip_held_leg(name: str, mode: str, concurrent: int) -> Leg:
    """Fig. 11: ramp ``concurrent`` calls, hold them all, release, as in
    ``measure_memory``.  Operation: one call."""

    def run(payload: bytes, phase: Phase) -> LegResult:
        bed, setup, tally, client_api = _build_sip(mode)
        sim = bed.sim
        release = sim.future()
        established = {"count": 0, "target": concurrent, "future": sim.future()}
        clients: List[SipClient] = []

        def ramp():
            for i in range(concurrent):
                client = SipClient(client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                                   mode=mode, user=f"user{i}")
                clients.append(client)
                client.hold_call(established, release)
                while established["count"] < i - 8:
                    yield 200_000
                yield 50_000
            yield established["future"]
            release.set_result(True)

        def body():
            sim.run_until(sim.process(ramp()).finished, limit=3_000 * SEC)
            sim.run(until=sim.now + 500 * MS)  # drain the BYEs

        wall, slow, counts = _measure(bed.testbed, body, phase)
        failed = sum(c.failed for c in clients)
        outputs = {
            "high_water_bytes": bed.meter.high_water, "final_bytes": bed.meter.bytes_now,
            "completed": sum(c.calls_completed for c in clients),
            "requests": bed.server.requests_handled, "sip_bytes": tally["bytes"],
            "sim_ns": sim.now, "frames": counts["frames"],
        }
        counts["wr_completions"] = counts["wr_partial"] = 0
        counts["memory_hwm"] = bed.meter.high_water
        return LegResult(outputs, counts, setup, wall / slow, [], concurrent,
                         tally["msgs"], tally["bytes"], failed, wall)

    return Leg(name, run)


# ----------------------------------------------------------------------
# Paper-shape checks (the bounds asserted in benchmarks/bench_fig05/07/08/10/11)
# ----------------------------------------------------------------------

def _pingpong_shape(out: Dict[str, Dict[str, object]]) -> List[str]:
    lat = {leg: o["one_way_us"] for leg, o in out.items()}
    bad = []
    if not 22 < lat["ud_sendrecv.64"] < 32:
        bad.append(f"fig05: UD send/recv 64 B one-way {lat['ud_sendrecv.64']} us not in (22, 32)")
    if not 28 < lat["rc_sendrecv.64"] < 40:
        bad.append(f"fig05: RC send/recv 64 B one-way {lat['rc_sendrecv.64']} us not in (28, 40)")
    for size in (64, 1024):
        if not lat[f"ud_sendrecv.{size}"] < lat[f"rc_sendrecv.{size}"]:
            bad.append(f"fig05: UD send/recv not faster than RC at {size} B")
        if not lat[f"ud_write_record.{size}"] < lat[f"rc_rdma_write.{size}"]:
            bad.append(f"fig05: UD Write-Record not faster than RC Write at {size} B")
    return bad


def _lossless_shape(out: Dict[str, Dict[str, object]]) -> List[str]:
    return [f"{leg}: {o['partial']} partial messages on a lossless path"
            for leg, o in out.items() if o["partial"]]


def _lossy_shape(out: Dict[str, Dict[str, object]]) -> List[str]:
    bad = []
    rd = out["rd_sendrecv.chaos"]
    if rd["complete"] != LOSSY_RD_MSGS:
        bad.append(f"fig07: RD delivered {rd['complete']}/{LOSSY_RD_MSGS} under chaos")
    if rd["rd_fast_retransmits"] < 1:
        bad.append("fig07: RD repaired no loss by fast retransmit")
    if not out["ud_write_record.loss1"]["sim_mbs"] > 150:
        bad.append("fig08: Write-Record 256 KB at 1 % loss not above 150 MB/s")
    if out["rc_sendrecv.loss1"]["complete"] != LOSSY_RC_MSGS:
        bad.append("RC send/recv lost messages at 1 % loss")
    return bad


def _sip_shape(out: Dict[str, Dict[str, object]]) -> List[str]:
    bad = []
    ud, rc = out["fig10.ud"]["mean_ms"], out["fig10.rc"]["mean_ms"]
    if not 0.25 < ud < 0.50:
        bad.append(f"fig10: UD response {ud} ms not in (0.25, 0.50)")
    if not 0.45 < rc < 0.80:
        bad.append(f"fig10: RC response {rc} ms not in (0.45, 0.80)")
    if rc and not 30 < 100 * (1 - ud / rc) < 55:
        bad.append("fig10: UD improvement over RC not in (30 %, 55 %)")
    hw_ud, hw_rc = out["fig11.ud"]["high_water_bytes"], out["fig11.rc"]["high_water_bytes"]
    live = 100 * (hw_rc - hw_ud) / hw_rc
    model = FootprintModel().improvement_percent(SIP_HELD)
    if abs(live - model) >= 0.2:
        bad.append(f"fig11: live improvement {live:.2f} % differs from model {model:.2f} %")
    for leg, o in out.items():
        expected = SIP_CALLS if leg.startswith("fig10") else SIP_HELD
        if o["completed"] != expected:
            bad.append(f"{leg}: {o['completed']}/{expected} calls completed")
    return bad


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

LOSSY_RD_MSGS = 100
LOSSY_RC_MSGS = 16
SIP_CALLS = 100
SIP_HELD = 30

# Why these four: see README.md.  In short, bulk stresses the per-frame
# path, pingpong the per-message layers, lossy the repair path and sip the
# socket interface, SIP and per-call connection set-up.
WORKLOADS: Dict[str, Workload] = {
    "bulk": Workload(
        "bulk",
        [
            stream_leg("ud_sendrecv.64k", "ud_sendrecv", 65536, 40, 64),
            stream_leg("ud_write_record.256k", "ud_write_record", 262144, 10, 64),
            stream_leg("rc_sendrecv.64k", "rc_sendrecv", 65536, 16, 64),
            stream_leg("rd_sendrecv.16k", "rd_sendrecv", 16384, 48, 16),
        ],
        _lossless_shape,
    ),
    "pingpong": Workload(
        "pingpong",
        [
            pingpong_leg(f"{mode}.{size}", mode, size, 60)
            for mode in ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")
            for size in (64, 1024)
        ],
        _pingpong_shape,
    ),
    "lossy": Workload(
        "lossy",
        [
            stream_leg("rd_sendrecv.chaos", "rd_sendrecv", 16384, LOSSY_RD_MSGS, 16, chaos=True),
            stream_leg("ud_write_record.loss1", "ud_write_record", 262144, 16, 64, loss_rate=0.01),
            stream_leg("rc_sendrecv.loss1", "rc_sendrecv", 65536, LOSSY_RC_MSGS, 64,
                       loss_rate=0.01),
        ],
        _lossy_shape,
    ),
    "sip": Workload(
        "sip",
        [
            sip_calls_leg("fig10.ud", "ud", SIP_CALLS),
            sip_calls_leg("fig10.rc", "rc", SIP_CALLS),
            sip_held_leg("fig11.ud", "ud", SIP_HELD),
            sip_held_leg("fig11.rc", "rc", SIP_HELD),
        ],
        _sip_shape,
    ),
}


def run_round(workload: Workload, payload: bytes, rng: random.Random,
              phase: Phase = contextlib.nullcontext) -> Dict[str, LegResult]:
    """Run every leg once, in an order drawn from ``rng``; each measured
    phase runs inside ``phase()``."""
    legs = list(workload.legs)
    rng.shuffle(legs)
    return {leg.name: leg.run(payload, phase) for leg in legs}
