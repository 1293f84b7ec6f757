"""The scenario catalogue: every verbs run a contract check pins, by name.

Each :class:`Scenario` row names a two-host :class:`VerbsEndpointPair`
run: mode, fault recipe on host 0's egress, workload and build options.
:func:`run` executes a row on a fresh simulator whose frame-trace sink
(``sim.tracer``) is attached before the connection handshake, closes
both QPs after the workload and runs one more simulated second so the
teardown is on the wire too.  A row's ``pins`` names the facets of its
:class:`RunRecord` that ``tests/golden/scenarios.json`` pins.  After a
deliberate change, print that whole file afresh (on CPython 3.11, the
version ``calls`` and ``peak_heap`` are pinned for) with::

    PYTHONPATH=src python -m repro.bench.scenarios > tests/golden/scenarios.json
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet.engine import SEC, US, Simulator
from ..simnet.faults import FaultModel, seeded_chaos
from ..simnet.loss import BernoulliLoss
from ..simnet.trace import Tracer
from .harness import VerbsEndpointPair

#: Warm-up round trips before a ping-pong's timed iterations.
PINGPONG_WARMUP = 3

#: The wire-digest facets and the metrics-series facet.
DIGEST = ("digest", "events", "calls", "peak_heap")
SERIES = ("metrics",)

_REPRO_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


@dataclass(frozen=True)
class Scenario:
    """One catalogue row."""

    mode: str
    workload: str = "bandwidth"      # or "pingpong"
    size: int = 16384
    count: int = 40                  # messages, or timed ping-pong iterations
    window: int = 8                  # bandwidth: signaled sends in flight
    loss: float = 0.0                # Bernoulli loss rate on host 0's egress
    chaos: bool = False              # the loss joins reordering and duplication
    seed: int = 3                    # seeds the loss and fault models
    rd_opts: Optional[Dict[str, int]] = None
    metrics: Optional[bool] = None   # None defers to IWARP_OBS
    pins: Tuple[str, ...] = ()


@dataclass
class RunRecord:
    """What one :func:`run` observed.

    ``digest`` hashes ``(time, kind, port, src, dst, wire_size)`` of
    every frame record, then the delivered message and byte counts
    (bandwidth) or the latency (ping-pong) and the final clock.
    ``events`` is ``sim.events_processed`` at the end.  ``calls`` counts
    the workload's Python calls into ``repro`` code and ``peak_heap`` the
    longest the event heap grew (see :func:`count_calls`); both are
    None unless the row pins them, as the profiler makes the workload
    several times slower.  ``outputs`` is what the workload returned
    (plus the RD LLP's ``rd_stats``), ``metrics`` the registry snapshot
    after it."""

    digest: str
    events: int
    calls: Optional[int]
    peak_heap: Optional[int]
    outputs: Dict[str, Any]
    metrics: Dict[str, Any]


#: The fig07 loss legs the determinism matrix repeats per seed.
FIG07_SEEDS = (1, 7, 11, 23, 42)
_FIG07 = {
    "rd": Scenario("rd_sendrecv", window=16, loss=0.05, rd_opts={"rto_ns": 5_000_000}),
    "ud": Scenario("ud_sendrecv", size=65536, count=20, window=64, loss=0.01),
}

SCENARIOS: Dict[str, Scenario] = {
    **{
        f"{mode}-{loss}": Scenario(mode, loss=loss, pins=DIGEST)
        for mode in ("rc_sendrecv", "rc_rdma_write", "rcsctp_sendrecv",
                     "ud_sendrecv", "ud_write_record", "rd_sendrecv")
        for loss in (0.0, 0.01)
    },
    "rd_sendrecv-chaos": Scenario("rd_sendrecv", loss=0.01, chaos=True, seed=5, pins=DIGEST),
    **{
        f"{mode}-pingpong-{size}": Scenario(mode, "pingpong", size=size, count=20, pins=DIGEST)
        for mode in ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")
        for size in (64, 1024)
    },
    **{
        f"series-{mode}": Scenario(mode, count=30, loss=loss, seed=5,
                                   rd_opts={"rto_ns": 1_000_000}, metrics=True, pins=SERIES)
        for mode, loss in (("rc_sendrecv", 0.0), ("rd_sendrecv", 0.02),
                           ("ud_sendrecv", 0.02), ("ud_write_record", 0.02))
    },
    **{
        f"fig07-{leg}-seed{seed}-metrics-{'on' if metrics else 'off'}":
            replace(row, seed=seed, metrics=metrics)
        for leg, row in _FIG07.items()
        for seed in FIG07_SEEDS
        for metrics in (False, True)
    },
    # Short runs for the fault-schedule explorer (tools/iwarpcheck):
    # unpinned.  Write-Record messages span two DDP segments, so a
    # completion can be checked against the LAST segment's arrival.
    **{
        f"explore-{mode}": Scenario(mode, size=size, count=4)
        for mode, size in (("rc_sendrecv", 16384), ("rcsctp_sendrecv", 16384),
                           ("rd_sendrecv", 16384), ("ud_write_record", 65536),
                           ("ud_sendrecv", 16384))
    },
}


def build(
    row: Scenario, sim: Simulator, faults: Optional[FaultModel] = None
) -> VerbsEndpointPair:
    """The connected pair row ``row`` runs on, built in ``sim``: its
    mode, build options and host-0 loss or chaos recipe, plus
    ``faults`` on both hosts from the first frame on."""
    loss = BernoulliLoss(row.loss, seed=row.seed) if row.loss else None
    pair = VerbsEndpointPair.build(
        row.mode, loss=None if row.chaos else loss, rd_opts=row.rd_opts,
        metrics=row.metrics, sim=sim, faults=faults,
    )
    if row.chaos:
        pair.testbed.set_egress_faults(0, seeded_chaos(
            row.seed, loss=loss, reorder_prob=0.02, reorder_hold_ns=20 * US,
            dup_prob=0.01,
        ))
    return pair


def workload(row: Scenario, pair: VerbsEndpointPair) -> Callable[[], Any]:
    """Row ``row``'s workload on ``pair``, ready to call."""
    if row.workload == "pingpong":
        return partial(pair.pingpong_latency_us, row.size, iters=row.count,
                       warmup=PINGPONG_WARMUP)
    return partial(pair.bandwidth_mbs, row.size, messages=row.count,
                   window=row.window)


def run(name: str) -> RunRecord:
    """Run catalogue row ``name`` in a fresh simulator."""
    row = SCENARIOS[name]
    sim = Simulator()
    sim.tracer = tracer = Tracer(sim)
    pair = build(row, sim)
    phase = workload(row, pair)
    calls: Optional[int] = None
    peak_heap: Optional[int] = None
    if "calls" in row.pins:
        out, calls, peak_heap = count_calls(sim._heap, phase)
    else:
        out = phase()
    if row.workload == "pingpong":
        outputs: Dict[str, Any] = {"latency_us": out}
        result: Tuple[Any, ...] = (out,)
    else:
        outputs = out
        result = (out["received_msgs"], out["received_bytes"])
    if row.mode.startswith("rd"):
        outputs["rd_stats"] = pair.qps[0].rd.stats()
    metrics = pair.metrics_snapshot()
    for qp in pair.qps:
        qp.close()
    sim.run(until=sim.now + SEC)

    h = hashlib.sha256()
    for rec in tracer.records:
        frame = rec.fields["frame"]
        h.update(repr((rec.time, rec.kind, rec.fields["port"], frame.src,
                       frame.dst, frame.wire_size)).encode())
    h.update(repr(result + (sim.now,)).encode())
    return RunRecord(h.hexdigest(), sim.events_processed, calls, peak_heap,
                     outputs, metrics)


def count_calls(heap: List[Any], fn: Callable[[], Any]) -> Tuple[Any, int, int]:
    """Call ``fn``; returns ``(result, python_calls, peak_heap)``: the
    profiler's ``"call"`` events into ``repro`` code (the methods
    ``dataclass`` generates included; standard-library frames are not
    counted, so the pin does not depend on the 3.11 patch release) and
    the longest ``heap`` (a simulator's ``_heap``) ever held: it is
    read as each ``heappush`` returns, the only call that lengthens it.
    The cyclic collector is paused so no finalizer runs at a point that
    depends on earlier allocations."""
    calls = peak = 0

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls, peak
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_REPRO_DIR) or filename == "<string>":
                calls += 1
        elif event == "c_return" and arg is heappush and len(heap) > peak:
            peak = len(heap)

    was_enabled = gc.isenabled()
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return result, calls, peak


if __name__ == "__main__":
    golden = {}
    for name, row in SCENARIOS.items():
        if row.pins:
            record = run(name)
            golden[name] = {facet: getattr(record, facet) for facet in row.pins}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
