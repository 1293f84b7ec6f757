"""Pinned metrics series: what the stack's declared tables export.

Metrics-on ``VerbsEndpointPair`` streams in four modes — UD send/recv,
UD Write-Record and RD send/recv at 2 % seeded loss, RC send/recv
lossless.  QP and CQ numbers are per device, so the raw keys repeat
from run to run.  ``series_golden.json`` pins, per mode, the sorted
series key set and the value of every non-zero series, so a change to a ``METRICS`` table, to what a field counts, or
to the labels an object registers with shows up here.

After a deliberate change, regenerate the golden file with::

    PYTHONPATH=src python -m tests.obs.test_series_golden > tests/obs/series_golden.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import VerbsEndpointPair
from repro.simnet.loss import BernoulliLoss

GOLDEN = Path(__file__).with_name("series_golden.json")

#: mode -> Bernoulli loss rate on host 0's egress (None: lossless).
SCENARIOS = {
    "ud_sendrecv": 0.02,
    "ud_write_record": 0.02,
    "rc_sendrecv": None,
    "rd_sendrecv": 0.02,
}


def _nonzero(value):
    if isinstance(value, dict):  # histogram
        return value["count"] != 0
    return value != 0


def run_scenario(mode):
    rate = SCENARIOS[mode]
    loss = None if rate is None else BernoulliLoss(rate, seed=5)
    pair = VerbsEndpointPair.build(
        mode, loss=loss, rd_opts={"rto_ns": 1_000_000}, metrics=True,
    )
    pair.bandwidth_mbs(16384, messages=30, window=8)
    snap = pair.metrics_snapshot()
    return {
        "keys": sorted(snap),
        "nonzero": {k: snap[k] for k in sorted(snap) if _nonzero(snap[k])},
    }


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_series_match_golden(mode):
    golden = json.loads(GOLDEN.read_text())[mode]
    got = run_scenario(mode)
    assert got["keys"] == golden["keys"]
    assert got["nonzero"] == golden["nonzero"]


if __name__ == "__main__":
    json.dump(
        {mode: run_scenario(mode) for mode in sorted(SCENARIOS)},
        sys.stdout, indent=1, sort_keys=True,
    )
    sys.stdout.write("\n")
