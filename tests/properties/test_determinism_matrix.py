"""Determinism seed matrix: the regression net under the hot-path work.

The timer-pool, zero-copy and batching refactors are only admissible if
the simulation they produce is *bit-identical* run to run — same event
count, same final clock, same delivery and repair counters, same
metrics snapshot — for any seed, with observability enabled or not.
This matrix runs a slimmed fig07 loss scenario twice per seed for five
seeds, in both metrics modes, and compares everything observable.
"""

import pytest

from repro.bench.harness import VerbsEndpointPair
from repro.simnet.loss import BernoulliLoss

SEEDS = (1, 7, 11, 23, 42)


def _run_fig07_once(seed: int, metrics: bool):
    """One slimmed fig07-style loss run: RD send/recv through 5 % loss
    (adaptive RTO + fast retransmit + SACK all get exercised), plus a
    UD leg whose fragmentation amplifies the same loss process."""
    deterministic = {}

    pair = VerbsEndpointPair.build(
        "rd_sendrecv",
        loss=BernoulliLoss(0.05, seed=seed),
        rd_opts={"rto_ns": 5_000_000},
        metrics=metrics,
    )
    out = pair.bandwidth_mbs(16384, messages=40, window=16)
    deterministic["rd"] = {
        "events": pair.sim.events_processed,
        "sim_ns": pair.sim.now,
        "received_msgs": out["received_msgs"],
        "received_bytes": out["received_bytes"],
        "rudp": pair.qps[0].rd.stats(),
    }
    snapshot = pair.metrics_snapshot() if metrics else None

    pair2 = VerbsEndpointPair.build(
        "ud_sendrecv", loss=BernoulliLoss(0.01, seed=seed), metrics=metrics,
    )
    out2 = pair2.bandwidth_mbs(65536, messages=20)
    deterministic["ud"] = {
        "events": pair2.sim.events_processed,
        "sim_ns": pair2.sim.now,
        "received_msgs": out2["received_msgs"],
        "received_bytes": out2["received_bytes"],
    }

    # The deterministic counters a benchmark round is checked on: the
    # sim_ns/bytes/msgs fields are what perfbench/reference.json pins per
    # leg (events is kept here but not pinned there), so run-to-run
    # equality of this dict is reference equality.
    bench_row = {
        "events": deterministic["rd"]["events"] + deterministic["ud"]["events"],
        "sim_ns": deterministic["rd"]["sim_ns"] + deterministic["ud"]["sim_ns"],
        "sim_bytes": out["received_bytes"] + out2["received_bytes"],
        "msgs": (out["received_msgs"] + out["partial_msgs"]
                 + out2["received_msgs"] + out2["partial_msgs"]),
    }
    return deterministic, bench_row, snapshot


@pytest.mark.parametrize("metrics", [False, True], ids=["metrics-off", "metrics-on"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fig07_bit_identical_across_runs(seed, metrics):
    """Two runs of the same seed agree on everything observable."""
    det_a, bench_a, snap_a = _run_fig07_once(seed, metrics)
    det_b, bench_b, snap_b = _run_fig07_once(seed, metrics)
    assert det_a == det_b
    assert bench_a == bench_b
    assert snap_a == snap_b
    if metrics:
        assert snap_a, "metrics=True must produce a non-empty snapshot"


@pytest.mark.parametrize("seed", SEEDS)
def test_fig07_metrics_do_not_perturb(seed):
    """Observability must be a pure observer: the deterministic
    counters and the benchmark row agree between metrics on and off."""
    det_off, bench_off, _ = _run_fig07_once(seed, metrics=False)
    det_on, bench_on, snap_on = _run_fig07_once(seed, metrics=True)
    assert det_off == det_on
    assert bench_off == bench_on
    assert snap_on is not None


def test_matrix_seeds_actually_differ():
    """Sanity: the matrix is not vacuous — different seeds produce
    different loss patterns, hence different event streams."""
    rows = {seed: _run_fig07_once(seed, metrics=False)[1]["events"]
            for seed in SEEDS}
    assert len(set(rows.values())) > 1
