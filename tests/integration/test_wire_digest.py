"""Wire-digest goldens: the behaviour contract for hot-path changes.

Every catalogue row that pins ``DIGEST`` (:mod:`repro.bench.scenarios`)
runs once per process and is checked against ``tests/golden/scenarios.json``:
its wire digest and ``events`` always, its ``calls`` and ``peak_heap``
on CPython 3.11 only.  The rows stream RC over TCP and SCTP, UD
send/recv, UD Write-Record and RD lossless and at 1 % loss, RD under
the chaos pipeline, and run the fig05 ping-pongs (64 B and 1 KB) for UD
send/recv, UD Write-Record, RC send/recv and RC RDMA Write.

``events``, ``calls`` and ``peak_heap`` are exact cost counters, not
behaviour: a change that schedules fewer events, makes fewer calls or
queues fewer entries for the same wire trace moves them and leaves the
digest alone.  ``make digest-check`` runs this file together with the
cross-process check and the determinism matrix.
"""

import functools
import sys

import pytest

from repro.bench.scenarios import DIGEST, SCENARIOS, run

DIGEST_ROWS = [name for name, row in SCENARIOS.items() if row.pins == DIGEST]
PINGPONG_ROWS = [n for n in DIGEST_ROWS if SCENARIOS[n].workload == "pingpong"]
RC_ROWS = [n for n in DIGEST_ROWS if n.startswith("rc") and n not in PINGPONG_ROWS]
DATAGRAM_ROWS = [n for n in DIGEST_ROWS if n not in RC_ROWS + PINGPONG_ROWS]

record = functools.lru_cache(maxsize=None)(run)


def check(golden, name, *facets):
    for facet in facets:
        assert getattr(record(name), facet) == golden[name][facet], facet


@pytest.mark.parametrize("name", RC_ROWS)
def test_rc_wire_digest_matches_golden(golden, name):
    check(golden, name, "digest", "events")


@pytest.mark.parametrize("name", DATAGRAM_ROWS)
def test_datagram_wire_digest_matches_golden(golden, name):
    check(golden, name, "digest", "events")


@pytest.mark.parametrize("name", PINGPONG_ROWS)
def test_pingpong_wire_digest_matches_golden(golden, name):
    check(golden, name, "digest", "events")


only_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="calls and peak_heap are pinned for CPython 3.11, the CI version; "
    "other versions count differently (3.12 inlines comprehensions)",
)


@only_cpython_311
@pytest.mark.parametrize("name", DIGEST_ROWS)
def test_python_calls_match_pinned(golden, name):
    check(golden, name, "calls")


@only_cpython_311
@pytest.mark.parametrize("name", DIGEST_ROWS)
def test_peak_heap_matches_pinned(golden, name):
    check(golden, name, "peak_heap")
