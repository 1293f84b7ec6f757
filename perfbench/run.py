"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

Runs rounds of the workload's legs (see ``workloads.py``) until
``--seconds`` of wall time have passed, checks every simulated output
against ``reference.json`` and the paper-shape bounds, and prints one
line per metric followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a few
untraced rounds, then traced rounds under :mod:`tracer`, reports the
per-layer ledger and writes it, with the raw spans, under
``.perfbench_out/`` in the current directory.

``--record`` reruns every workload once and rewrites ``reference.json``;
only do this for a deliberate change of simulated behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Process settings the measurements depend on; ``run.py`` re-executes
#: itself with them before importing anything.
#: * The SIP From-tag is ``hash(user) % 99999``: under Python's per-process
#:   string-hash randomisation, SIP message sizes, and with them every
#:   simulated SIP result, change from one process to the next.
#: * glibc moves its mmap threshold at run time, so the 1 MiB memory
#:   regions every testbed registers came from fresh mmaps (page faults,
#:   ~4.5 ms a build) in some processes and from the heap (~1.3 ms) in
#:   others: bulk's set-up time flipped between 6.5 and 18 ms per run.
#:   Fixed thresholds keep them on the heap in every process.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, LegResult, clock, make_payload, run_round  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT_DIR = Path(".perfbench_out")

#: Share of a traced run spent on untraced rounds, the base of
#: ``trace.overhead_ratio``.
UNTRACED_SHARE = 1 / 3

Round = Dict[str, LegResult]


def run_rounds(workload, seconds: float, payload: bytes, rng: random.Random,
               min_rounds: int = 2) -> List[Round]:
    """Rounds until ``seconds`` have passed, after one warm-up round
    (checked, not timed) that brings the allocator and the interpreter's
    caches to their steady state."""
    deadline = clock() + seconds
    rounds = [run_round(workload, payload, rng)]
    while len(rounds) <= min_rounds or clock() < deadline:
        rounds.append(run_round(workload, payload, rng))
    return rounds


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_rounds(workload, rounds: List[Round], reference: Dict[str, dict],
                 base_counts: Dict[str, dict]) -> List[str]:
    """Every leg must match the reference, the paper shape, and the
    deterministic counts of ``base_counts`` (filled from the first round
    seen when empty)."""
    problems: List[str] = []
    for i, rnd in enumerate(rounds):
        outputs = {leg: r.outputs for leg, r in rnd.items()}
        for leg, r in rnd.items():
            if r.outputs != reference.get(leg):
                problems.append(f"round {i} {leg}: outputs {r.outputs} != reference "
                                f"{reference.get(leg)}")
            if r.errors:
                problems.append(f"round {i} {leg}: {r.errors} operations failed")
            counts = base_counts.setdefault(leg, r.counts)
            if r.counts != counts:
                problems.append(f"round {i} {leg}: counts {r.counts} != {counts}")
        problems += [f"round {i} {p}" for p in workload.shape(outputs)]
    return problems


def failed_ops(rounds: List[Round], reference: Dict[str, dict]) -> int:
    """A leg whose outputs drifted fails all its operations."""
    failed = 0
    for rnd in rounds:
        for leg, r in rnd.items():
            failed += r.ops if r.outputs != reference.get(leg) else r.errors
    return failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    data = sorted(samples)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def round_wall(rnd: Round) -> float:
    return sum(r.wall_s for r in rnd.values())


def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, tuple], int]:
    """Metrics over the timed rounds (the warm-up round is dropped), and
    the fewest single-operation samples any round's tail rests on."""
    rounds = rounds[1:]

    def per_round(fn):
        return statistics.median(fn(rnd) / round_wall(rnd) for rnd in rounds)

    per_op: Dict[str, List[float]] = {}
    for rnd in rounds:
        for leg, r in rnd.items():
            per_op.setdefault(leg, []).append(r.wall_s / r.ops)
    samples = [[s for r in rnd.values() for s in r.op_walls] for rnd in rounds]
    metrics = {
        "setup_s": (statistics.median(sum(r.setup_s for r in rnd.values()) for rnd in rounds), "s"),
        "frames_per_s": (per_round(lambda rnd: sum(r.counts["frames"] for r in rnd.values())), "1/s"),
        "sim_mb_per_s": (per_round(lambda rnd: sum(r.payload_bytes for r in rnd.values()) / 1e6),
                         "MB/s"),
        "msgs_per_s": (per_round(lambda rnd: sum(r.msgs for r in rnd.values())), "1/s"),
        # Completions arrive in bursts and legs run at different speeds,
        # so a pooled median of single samples jumps between modes; the
        # median over rounds of each leg's wall per operation does not.
        "op_wall_us.p50": (statistics.fmean(statistics.median(v) for v in per_op.values()) * 1e6,
                           "us"),
        # The tail is taken per round and the median reported, so that a
        # burst of machine noise spoils one round's value, not the run's.
        "op_wall_us.p90": (statistics.median(percentile(s, 90) for s in samples) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, min(len(s) for s in samples)


def per_layer(rounds: List[Round], t: tracing.LayerTracer, overhead: float) -> Dict[str, tuple]:
    legs = [r for rnd in rounds for r in rnd.values()]

    def total(key: str) -> int:
        return sum(r.counts.get(key, 0) for r in legs)

    ops = sum(r.ops for r in legs)
    tc = t.counts
    frames = total("frames")
    events = total("events")
    out: Dict[str, tuple] = {}
    covered = 0.0
    for layer in tracing.LAYERS:
        share = t.self_ns.get(layer, 0) / t.total_ns
        covered += share
        out[f"{layer}.self_share"] = (share, "ratio")
        out[f"{layer}.calls_per_op"] = (t.calls.get(layer, 0) / ops, "1/op")
    out["driver_other.self_share"] = (1.0 - covered, "ratio")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out.update({
        "simnet.engine.events_per_frame": (ratio(events, frames), "1/frame"),
        "simnet.engine.run_calls_per_event": (ratio(tc["engine.run_calls"], events), "1/event"),
        "simnet.engine.cancels_per_op": (tc["engine.cancels"] / ops, "1/op"),
        "simnet.cpu.busy_ns_per_op": (total("cpu_busy_ns") / ops, "ns/op"),
        "simnet.cpu.wait_ns_per_op": (tc["cpu.wait_ns"] / ops, "ns/op"),
        "simnet.cpu.charge_share": (ratio(tc["cpu.charges"], tc["cpu.submits"]), "ratio"),
        "simnet.nic.frames_per_op": (frames / ops, "1/op"),
        "simnet.nic.queue_hwm": (max(r.counts["queue_hwm"] for r in legs), "frames"),
        "simnet.nic.drops_per_op": (total("drops") / ops, "1/op"),
        "simnet.faults.injections_per_op": (total("injections") / ops, "1/op"),
        "transport.ip.fragments_per_op": (total("ip_packets") / ops, "1/op"),
        "transport.rudp.retransmits_per_op": (tc["rudp.retransmits"] / ops, "1/op"),
        "transport.rudp.timeouts": (total("rudp_timeouts") / len(rounds), "1/round"),
        "transport.rudp.acks_per_op": (tc["rudp.acks"] / ops, "1/op"),
        "transport.rudp.useful_ratio": (ratio(tc["rudp.delivered"], tc["rudp.data_sent"]), "ratio"),
        "transport.tcp.retransmits_per_op": (tc["tcp.retransmits"] / ops, "1/op"),
        "transport.tcp.acks_per_op": (tc["tcp.acks"] / ops, "1/op"),
        "core.rdmap.partial_share": (ratio(total("wr_partial"), total("wr_completions")), "ratio"),
        "core.verbs.polls_per_completion": (ratio(tc["verbs.polls"], tc["verbs.completions"]),
                                            "ratio"),
        "memory.high_water_bytes": (max(r.counts.get("memory_hwm", 0) for r in legs), "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def load_reference() -> Dict[str, dict]:
    with open(REFERENCE) as fh:
        return json.load(fh)


def record(seed: int) -> int:
    """Rewrite reference.json from one round of every workload, after
    checking that a traced round gives the same outputs."""
    payload = make_payload(seed)
    reference: Dict[str, dict] = {}
    for workload in WORKLOADS.values():
        untraced = run_round(workload, payload, random.Random(seed))
        t = tracing.install(tracing.LayerTracer(span_cost_ns=tracing.calibrate()))
        try:
            traced = run_round(workload, payload, random.Random(seed), t.measure)
        finally:
            t.uninstall()
        for leg, r in untraced.items():
            if traced[leg].outputs != r.outputs or traced[leg].counts != r.counts:
                print(f"{leg}: traced run differs from untraced", file=sys.stderr)
                return 1
            reference[leg] = r.outputs
        bad = workload.shape({leg: r.outputs for leg, r in untraced.items()})
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE} ({len(reference)} legs)")
    return 0


def run_all(argv: List[str]) -> int:
    """Run every workload in a child process of its own (so that each
    reports its own peak RSS), then print a summary line."""
    i = argv.index("--workload")
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOADS:
        child = [sys.executable, __file__, *argv[:i], "--workload", name, *argv[i + 2:]]
        out = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True).stdout
        print(out, end="")
        last = json.loads(out.strip().splitlines()[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
    print(f"all workloads: correct {totals['correct']}, failed_ratio "
          f"{totals['failed'] / totals['attempted']:.6f}")
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs each workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json instead of measuring")
    args = ap.parse_args(argv)
    if args.record:
        return record(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])

    workload = WORKLOADS[args.workload]
    reference = load_reference()
    payload = make_payload(args.seed)
    rng = random.Random(args.seed)
    base_counts: Dict[str, dict] = {}

    if not args.trace:
        rounds = run_rounds(workload, args.seconds, payload, rng)
        problems = check_rounds(workload, rounds, reference, base_counts)
        metrics, samples = end_to_end(rounds)
        measured = rounds
    else:
        untraced = run_rounds(workload, args.seconds * UNTRACED_SHARE, payload, rng, 1)
        t = tracing.install(tracing.LayerTracer(span_cost_ns=tracing.calibrate()))
        traced: List[Round] = []
        try:
            deadline = clock() + args.seconds * (1 - UNTRACED_SHARE)
            while not traced or clock() < deadline:
                traced.append(run_round(workload, payload, rng, t.measure))
        finally:
            t.uninstall()
        problems = check_rounds(workload, untraced + traced, reference, base_counts)
        overhead = (statistics.median(round_wall(r) for r in traced)
                    / statistics.median(round_wall(r) for r in untraced[1:]))
        metrics = per_layer(traced, t, overhead)
        samples = 0
        measured = untraced + traced
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{workload.name}-seed{args.seed}"
        with open(f"{stem}-ledger.json", "w") as fh:
            json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh, indent=1)
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(t.dump(), fh)

    attempted = sum(r.ops for rnd in measured for r in rnd.values())
    failed = failed_ops(measured, reference)
    for p in problems[:20]:
        print("CHECK FAILED:", p)
    slow = statistics.median(r.raw_wall_s / r.wall_s for rnd in measured for r in rnd.values())
    print(f"workload {workload.name}: {len(measured)} rounds, {attempted} operations, "
          f"failed_ratio {failed / attempted:.6f}, median machine slowdown {slow:.3f}"
          + (f", >= {samples} op_wall samples per round" if samples else ""))
    if samples and samples < 100:
        print("  op_wall_us.p90 has fewer than 10 samples beyond it in a round")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
