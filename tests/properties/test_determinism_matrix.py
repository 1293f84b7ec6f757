"""Determinism seed matrix: the regression net under the hot-path work.

The timer-pool, zero-copy and batching refactors are only admissible if
the simulation they produce is *bit-identical* run to run — same wire
digest, event count, clock, delivery and repair counters, same metrics
snapshot — for any seed, with observability enabled or not.  This
matrix runs the slimmed fig07 loss legs of the scenario catalogue (RD
send/recv through 5 % loss, so adaptive RTO, fast retransmit and SACK
all get exercised, plus a UD leg whose fragmentation amplifies the same
loss process) twice per seed for five seeds, in both metrics modes, and
compares everything observable.
"""

import functools

import pytest

from repro.bench.scenarios import FIG07_SEEDS, run


def _fig07_once(seed: int, metrics: bool):
    """Per leg: what the run did, and its metrics snapshot."""
    deterministic, snapshots = {}, {}
    for leg in ("rd", "ud"):
        record = run(f"fig07-{leg}-seed{seed}-metrics-{'on' if metrics else 'off'}")
        deterministic[leg] = (record.digest, record.events, record.outputs)
        snapshots[leg] = record.metrics
    return deterministic, snapshots


_fig07_first = functools.lru_cache(maxsize=None)(_fig07_once)


@pytest.mark.parametrize("metrics", [False, True], ids=["metrics-off", "metrics-on"])
@pytest.mark.parametrize("seed", FIG07_SEEDS)
def test_fig07_bit_identical_across_runs(seed, metrics):
    """Two runs of the same seed agree on everything observable."""
    det_a, snap_a = _fig07_first(seed, metrics)
    det_b, snap_b = _fig07_once(seed, metrics)
    assert det_a == det_b
    assert snap_a == snap_b
    if metrics:
        assert all(snap_a.values()), "metrics=True must produce non-empty snapshots"


@pytest.mark.parametrize("seed", FIG07_SEEDS)
def test_fig07_metrics_do_not_perturb(seed):
    """Observability must be a pure observer: everything the run did
    agrees between metrics on and off."""
    det_off, snap_off = _fig07_first(seed, False)
    det_on, snap_on = _fig07_first(seed, True)
    assert det_off == det_on
    assert not any(snap_off.values()) and all(snap_on.values())


def test_matrix_seeds_actually_differ():
    """Sanity: the matrix is not vacuous — different seeds produce
    different loss patterns, hence different event streams."""
    digests = {_fig07_first(seed, False)[0]["rd"][0] for seed in FIG07_SEEDS}
    assert len(digests) == len(FIG07_SEEDS)
