"""Pinned metrics series: what the stack's declared tables export.

The ``series-<mode>`` catalogue rows (:mod:`repro.bench.scenarios`)
stream metrics-on in four modes: UD send/recv, UD Write-Record and RD
send/recv at 2 % seeded loss, RC send/recv lossless.  QP and CQ numbers
are per device, so the raw keys repeat from run to run.
``tests/golden/scenarios.json`` pins, per row, the whole snapshot: every
series key and its value, so a change to a ``METRICS`` table, to what a
field counts, or to the labels an object registers with shows up here.
"""

import pytest

from repro.bench.scenarios import SERIES, SCENARIOS, run

ROWS = [name for name, row in SCENARIOS.items() if row.pins == SERIES]


@pytest.mark.parametrize("name", ROWS, ids=lambda name: name.removeprefix("series-"))
def test_series_match_golden(golden, name):
    assert run(name).metrics == golden[name]["metrics"]
