"""Shared fixtures: testbeds, stacks, devices, verbs endpoints."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.verbs import RnicDevice
from repro.models.costs import zero_cost_model
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

#: When set (with IWARP_OBS=1), every registry the session creates is
#: tracked and their merged samples are written here at session end —
#: the CI metrics-snapshot artifact (``python -m repro.obs summarize``).
_OBS_DUMP = os.environ.get("IWARP_OBS_DUMP")


def pytest_sessionfinish(session, exitstatus):
    if _OBS_DUMP:
        from repro.obs import dump_tracked

        dump_tracked(_OBS_DUMP)


@pytest.fixture(scope="session")
def golden():
    """``golden/scenarios.json``: the pinned facets of the scenario
    catalogue (:mod:`repro.bench.scenarios`), keyed by row, then facet."""
    return json.loads((Path(__file__).parent / "golden" / "scenarios.json").read_text())


@pytest.fixture
def testbed():
    """Two hosts through a switch, paper cost model."""
    return build_testbed(2)


@pytest.fixture
def zero_testbed():
    """Two hosts with all CPU costs zeroed (pure protocol tests)."""
    return build_testbed(2, costs=zero_cost_model())


@pytest.fixture
def stacks(testbed):
    return install_stacks(testbed)


@pytest.fixture
def zero_stacks(zero_testbed):
    return install_stacks(zero_testbed)


@pytest.fixture
def devices(testbed, stacks):
    return [RnicDevice(n) for n in stacks]


@pytest.fixture
def zero_devices(zero_testbed, zero_stacks):
    return [RnicDevice(n) for n in zero_stacks]
