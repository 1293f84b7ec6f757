"""Pin of the socket-interface path: the SIP runs of Figs. 10 and 11.

No catalogue row runs through ``repro.core.socketif``, so a change to
the socket interface, the CQ waiter path or the SIP codec would move
nothing in ``tests/golden/scenarios.json``.  This test runs the two SIP
measurements in a fresh interpreter and compares what they did with
values recorded before the socket-path fast paths went in:

* ``fig10-ud`` and ``fig10-rc``: 10 sequential calls each, with the
  1 ms idle gap of :func:`repro.apps.sip.workload.measure_response_time`;
* ``fig11-ud`` and ``fig11-rc``: 5 calls ramped, held and released, as
  :func:`repro.apps.sip.workload.measure_memory` does.

For each run it checks the frame digest (built as
:func:`repro.bench.scenarios.run` builds it from ``sim.tracer``), the
events processed, each host's CPU ``busy_ns`` and the SIP outputs.

The SIP From tag is derived from the builtin ``hash()`` of the user
name, so a message's size, and with it every value here, follows the
string-hash salt: the runs are pinned under ``PYTHONHASHSEED=0`` only.
Once the From tag is derived deterministically (ROADMAP item 1) these
four runs become rows of the scenario catalogue and this file goes.

``make digest-check`` runs this file with the wire-digest goldens.
Run this file as a script to print the values afresh.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.sip.client import SipClient
from repro.apps.sip.workload import SIP_PORT, build_sip_testbed
from repro.simnet.engine import MS, SEC
from repro.simnet.trace import Tracer

_REPO = Path(__file__).resolve().parents[2]

#: Recorded under PYTHONHASHSEED=0 on CPython 3.11, whose string hash
#: (SipHash-1-3, also in later versions) sets the From tags.
PINNED = {
    "fig10-ud": {
        "digest": "ac3904134843138966394b5c08045c4162d24159fd711d67338cffe04e7f7e9b",
        "events": 1146,
        "busy_ns": [4327645, 4890335],
        "outputs": {"mean_ms": 0.3565977, "requests": 30, "sim_ns": 18392432, "sip_bytes": 22756},
    },
    "fig10-rc": {
        "digest": "cbc44d5fd9cec9a216dfe391d99d49f0f0caf55752e2d8c40d2bad256194e664",
        "events": 2204,
        "busy_ns": [6788624, 6182481],
        "outputs": {"mean_ms": 0.6107968, "requests": 30, "sim_ns": 21197313, "sip_bytes": 22756},
    },
    "fig11-ud": {
        "digest": "5449a0fde27c85f06eeb30a1f00589362f17c2787b8041386fa6bebba92bfec3",
        "events": 577,
        "busy_ns": [2614740, 4584335],
        "outputs": {"final_bytes": 1048576, "high_water_bytes": 1064736, "requests": 15,
                    "sim_ns": 504037664, "sip_bytes": 11375},
    },
    "fig11-rc": {
        "digest": "4bf2f025a98f022dff30dafa97594eaa0679aa63d4f261ac87c9c101bdfb71ed",
        "events": 1105,
        "busy_ns": [5535980, 5230405],
        "outputs": {"final_bytes": 1068096, "high_water_bytes": 1069856, "requests": 15,
                    "sim_ns": 507909038, "sip_bytes": 11375},
    },
}


class _Tally:
    """Socket-interface proxy counting the SIP bytes handed to it."""

    def __init__(self, api, tally):
        self._api = api
        self._tally = tally

    def sendto(self, fd, data, addr):
        self._tally["bytes"] += len(data)
        return self._api.sendto(fd, data, addr)

    def send(self, fd, data):
        self._tally["bytes"] += len(data)
        return self._api.send(fd, data)

    def __getattr__(self, name):
        return getattr(self._api, name)


def _bed(mode, **kwargs):
    bed = build_sip_testbed(mode, **kwargs)
    bed.sim.tracer = Tracer(bed.sim)
    tally = {"bytes": 0}
    bed.server.api = _Tally(bed.server_api, tally)
    return bed, tally, _Tally(bed.client_api, tally)


def _record(bed, tally, outputs):
    sim = bed.sim
    h = hashlib.sha256()
    for rec in sim.tracer.records:
        frame = rec.fields["frame"]
        h.update(repr((rec.time, rec.kind, rec.fields["port"], frame.src,
                       frame.dst, frame.wire_size)).encode())
    h.update(repr(sim.now).encode())
    outputs.update(requests=bed.server.requests_handled, sip_bytes=tally["bytes"],
                   sim_ns=sim.now)
    return {
        "digest": h.hexdigest(),
        "events": sim.events_processed,
        "busy_ns": [host.cpu.busy_ns for host in bed.testbed.hosts],
        "outputs": outputs,
    }


def sequential_calls(mode, calls=10):
    """Fig. 10's sequential calls, as ``measure_response_time`` runs them."""
    bed, tally, api = _bed(mode, pool_slots=4)
    times = []

    def driver():
        for i in range(calls):
            client = SipClient(api, bed.testbed.hosts[1], (0, SIP_PORT),
                               mode=mode, user=f"user{i}")
            yield client.run_call().finished
            assert not client.failed, f"call {i} failed"
            times.extend(client.response_times_ns)
            yield 1 * MS

    bed.sim.run_until(bed.sim.process(driver()).finished, limit=600 * SEC)
    return _record(bed, tally, {"mean_ms": sum(times) / len(times) / 1e6})


def held_calls(mode, concurrent=5):
    """Fig. 11's held calls, as ``measure_memory`` runs them."""
    bed, tally, api = _bed(mode)
    sim = bed.sim
    release = sim.future()
    established = {"count": 0, "target": concurrent, "future": sim.future()}
    clients = []

    def ramp():
        for i in range(concurrent):
            client = SipClient(api, bed.testbed.hosts[1], (0, SIP_PORT),
                               mode=mode, user=f"user{i}")
            clients.append(client)
            client.hold_call(established, release)
            while established["count"] < i - 8:
                yield 200_000
            yield 50_000
        yield established["future"]
        release.set_result(True)

    sim.run_until(sim.process(ramp()).finished, limit=3_000 * SEC)
    sim.run(until=sim.now + 500 * MS)
    assert not any(c.failed for c in clients)
    return _record(bed, tally, {"high_water_bytes": bed.meter.high_water,
                                "final_bytes": bed.meter.bytes_now})


RUNS = {
    "fig10-ud": lambda: sequential_calls("ud"),
    "fig10-rc": lambda: sequential_calls("rc"),
    "fig11-ud": lambda: held_calls("ud"),
    "fig11-rc": lambda: held_calls("rc"),
}


def run_all():
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="earlier versions hash strings with SipHash-2-4")
def test_socket_path_runs_match_their_pins():
    env = {key: value for key, value in os.environ.items() if key != "IWARP_OBS_DUMP"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep + str(_REPO)
    proc = subprocess.run(
        [sys.executable, __file__], cwd=_REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name in RUNS:
        assert got[name] == PINNED[name], name


if __name__ == "__main__":
    json.dump(run_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
