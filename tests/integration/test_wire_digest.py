"""Wire-digest goldens: the behaviour contract for hot-path changes.

One :class:`Tracer` sits on every NIC and switch port from before the
connection handshake.  The digest hashes ``(time, kind, port, src, dst,
wire_size)`` of every tx, rx and drop record, then the delivered
message and byte counts and the final simulated clock.  A change that
keeps the wire trace identical keeps the digest; anything that moves
one frame by one nanosecond does not.

Each mode streams a short run lossless and at 1 % Bernoulli loss on
host 0's egress, then both sides close their QP so the teardown (TCP
FIN, SCTP SHUTDOWN) is on the wire too.  RD also runs under the chaos
pipeline of perfbench's ``lossy`` workload: loss, reordering and
duplication together.  The fig05 ping-pong runs (``pingpong-64`` and
``pingpong-1024``: ``pingpong_latency_us(size, iters=20, warmup=3)``)
cover the per-message path, verbs post and poll, CQ wake-ups and
RDMAP/DDP matching, for UD send/recv, Write-Record, RC send/recv and RC
RDMA Write; their digest ends with the measured latency.

``EVENTS`` pins ``sim.events_processed`` for the same runs, ``CALLS``
the Python function calls into ``repro`` code (``sys.setprofile``
``"call"`` events) made during the ``bandwidth_mbs`` or
``pingpong_latency_us`` phase, and ``HEAP`` the longest event heap
(live entries and tombstones) the same profiler saw in that phase.
All three are exact cost counters, not behaviour: a change that
schedules fewer events, makes fewer calls or queues fewer entries for
the same wire trace moves ``EVENTS``, ``CALLS`` or ``HEAP`` and leaves
``GOLDEN`` alone.  ``CALLS`` and ``HEAP`` are pinned for CPython 3.11
only; other versions count calls differently, so the heap is sampled
at other points.  Each scenario runs once
per process and the three checks share the run.  ``make digest-check``
runs this file together with the cross-process check
(``test_cross_process_determinism.py``) and the determinism matrix.

After a deliberate wire, event-count, call-count or heap change, print fresh
values with::

    PYTHONPATH=src python -m tests.integration.test_wire_digest
"""

import functools
import gc
import hashlib
import os
import sys

import pytest

import repro.bench.harness as harness
from repro.bench.harness import VerbsEndpointPair
from repro.simnet.engine import SEC, US
from repro.simnet.faults import seeded_chaos
from repro.simnet.loss import BernoulliLoss
from repro.simnet.trace import Tracer

_REPRO_DIR = os.path.dirname(os.path.dirname(harness.__file__)) + os.sep

#: (mode, fault) -> digest of the run.  ``fault`` is a Bernoulli loss
#: rate on host 0's egress, ``"chaos"`` for the RD chaos pipeline, or
#: ``"pingpong-<size>"`` for a lossless fig05 ping-pong of that size.
GOLDEN = {
    ('rc_sendrecv', 0.0): 'cbec5f83e4136868221f2cb20c65023f04a5761ac7bb89a230eaef8052339746',
    ('rc_sendrecv', 0.01): '008dc73587af7f6801248011c4adc43616c15c590fb54cb4b30be57515f7e904',
    ('rc_rdma_write', 0.0): '36dae7789449b6fedd86ebeb02804deff926143852e01fc4dd52ee5fa882e0aa',
    ('rc_rdma_write', 0.01): 'd2a5dda073ac2be32adb65dc5351b792950ec683bd4b3e4a08787fd69f6cc723',
    ('rcsctp_sendrecv', 0.0): 'e5cca8e74fe6ffde17133bbb86f31382a18f67355e260cfc490d56223d1b3405',
    ('rcsctp_sendrecv', 0.01): '87dd47b1a6c283f46ba6ffe93a01b23a59bf3ac0e48dfd54e4df48e0a26007df',
    ('ud_sendrecv', 0.0): '1fe047d8af3f36dc96c5a9425f040c0916b74ffa7680468da82054c01f70fb64',
    ('ud_sendrecv', 0.01): '8ea90cd96b0a5449456822e1dd4e8a2fa0157c01c7def201b0e25a85984742f2',
    ('ud_write_record', 0.0): '876cc18b86e479a0f83acf65e4e7cda4c4aec4c44029549a7bdaf1f5440d54d0',
    ('ud_write_record', 0.01): '0e5aa093e8a420e8fc124c71c260dbf23a36546de26a10f7ea3a61af0f78a3e2',
    ('rd_sendrecv', 0.0): '4640c884f1a74695bce230c28f79b27eb7890a4d4ae6dc056e38f7e16add9dee',
    ('rd_sendrecv', 0.01): '6a1973928f998a580cc2fd02be7ccb51f66e5020a58cf7555b4924c85fae6a45',
    ('rd_sendrecv', 'chaos'): '82af1ba58f818efd0f44e78e1ff364d26369ebcbcb74e2a2f5408356670692ad',
    ('ud_sendrecv', 'pingpong-64'): 'b2cb8c752ca85edcde3647c82635f726ed64dea57e735864584d106cca98c83f',
    ('ud_sendrecv', 'pingpong-1024'): 'dc0effa7356f993e822670a04b989fdc467610cb2ac9f264338fc7f847861ca2',
    ('ud_write_record', 'pingpong-64'): '092dd619c099fa2093bae2eeca2809a66d14fa060fb78c9bd828be48e6b47a51',
    ('ud_write_record', 'pingpong-1024'): '4ecdeb908e809b26addba6e29a1912e52ae75f91389886a0f100644a55bcdaa8',
    ('rc_sendrecv', 'pingpong-64'): 'fba0fa1915af145a45ec77d9b4086000bedc962ed9ab8f8830ab66cf3eaffb38',
    ('rc_sendrecv', 'pingpong-1024'): 'ab8ddbda8304bb672b989e8f3c7d2f5429bac994383479a28fca4df3b12db23e',
    ('rc_rdma_write', 'pingpong-64'): 'b3f37f57e5c9bace6e0e4fbaa18ffda5795506b68516b210e0c15c7bc857c6b3',
    ('rc_rdma_write', 'pingpong-1024'): '8267c5b6e2a54ba05a08a5110dabd1c5d1b687f74726384c47db122ea05598d0',
}

#: (mode, fault) -> ``sim.events_processed`` at the end of the run.
EVENTS = {
    ('rc_sendrecv', 0.0): 7690,
    ('rc_sendrecv', 0.01): 12604,
    ('rc_rdma_write', 0.0): 7611,
    ('rc_rdma_write', 0.01): 12525,
    ('rcsctp_sendrecv', 0.0): 6852,
    ('rcsctp_sendrecv', 0.01): 8513,
    ('ud_sendrecv', 0.0): 2832,
    ('ud_sendrecv', 0.01): 2817,
    ('ud_write_record', 0.0): 2832,
    ('ud_write_record', 0.01): 2817,
    ('rd_sendrecv', 0.0): 8032,
    ('rd_sendrecv', 0.01): 8037,
    ('rd_sendrecv', 'chaos'): 8113,
    ('ud_sendrecv', 'pingpong-64'): 606,
    ('ud_sendrecv', 'pingpong-1024'): 606,
    ('ud_write_record', 'pingpong-64'): 606,
    ('ud_write_record', 'pingpong-1024'): 606,
    ('rc_sendrecv', 'pingpong-64'): 843,
    ('rc_sendrecv', 'pingpong-1024'): 881,
    ('rc_rdma_write', 'pingpong-64'): 751,
    ('rc_rdma_write', 'pingpong-1024'): 789,
}

#: (mode, fault) -> Python function calls into ``repro`` code
#: (``sys.setprofile`` ``"call"`` events, see :func:`count_calls`) during
#: the ``bandwidth_mbs`` or ``pingpong_latency_us`` phase, on CPython 3.11.
CALLS = {
    ('rc_sendrecv', 0.0): 67356,
    ('rc_sendrecv', 0.01): 104773,
    ('rc_rdma_write', 0.0): 66036,
    ('rc_rdma_write', 0.01): 103390,
    ('rcsctp_sendrecv', 0.0): 55083,
    ('rcsctp_sendrecv', 0.01): 68280,
    ('ud_sendrecv', 0.0): 20075,
    ('ud_sendrecv', 0.01): 20347,
    ('ud_write_record', 0.0): 19931,
    ('ud_write_record', 0.01): 20203,
    ('rd_sendrecv', 0.0): 73632,
    ('rd_sendrecv', 0.01): 73857,
    ('rd_sendrecv', 'chaos'): 78820,
    ('ud_sendrecv', 'pingpong-64'): 6264,
    ('ud_sendrecv', 'pingpong-1024'): 6264,
    ('ud_write_record', 'pingpong-64'): 6032,
    ('ud_write_record', 'pingpong-1024'): 6032,
    ('rc_sendrecv', 'pingpong-64'): 8182,
    ('rc_sendrecv', 'pingpong-1024'): 8334,
    ('rc_rdma_write', 'pingpong-64'): 6922,
    ('rc_rdma_write', 'pingpong-1024'): 7074,
}

#: (mode, fault) -> longest ``sim._heap`` seen at a profiler ``"call"``
#: event during the same phase as ``CALLS``, on CPython 3.11.
HEAP = {
    ('rc_sendrecv', 0.0): 421,
    ('rc_sendrecv', 0.01): 308,
    ('rc_rdma_write', 0.0): 349,
    ('rc_rdma_write', 0.01): 287,
    ('rcsctp_sendrecv', 0.0): 407,
    ('rcsctp_sendrecv', 0.01): 312,
    ('ud_sendrecv', 0.0): 45,
    ('ud_sendrecv', 0.01): 42,
    ('ud_write_record', 0.0): 45,
    ('ud_write_record', 0.01): 42,
    ('rd_sendrecv', 0.0): 129,
    ('rd_sendrecv', 0.01): 129,
    ('rd_sendrecv', 'chaos'): 127,
    ('ud_sendrecv', 'pingpong-64'): 9,
    ('ud_sendrecv', 'pingpong-1024'): 9,
    ('ud_write_record', 'pingpong-64'): 9,
    ('ud_write_record', 'pingpong-1024'): 9,
    ('rc_sendrecv', 'pingpong-64'): 13,
    ('rc_sendrecv', 'pingpong-1024'): 13,
    ('rc_rdma_write', 'pingpong-64'): 12,
    ('rc_rdma_write', 'pingpong-1024'): 12,
}

RC_SCENARIOS = [
    (mode, rate)
    for mode in ("rc_sendrecv", "rc_rdma_write", "rcsctp_sendrecv")
    for rate in (0.0, 0.01)
]
DATAGRAM_SCENARIOS = [
    (mode, rate)
    for mode in ("ud_sendrecv", "ud_write_record", "rd_sendrecv")
    for rate in (0.0, 0.01)
] + [("rd_sendrecv", "chaos")]
PINGPONG_SCENARIOS = [
    (mode, f"pingpong-{size}")
    for mode in ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")
    for size in (64, 1024)
]
ALL_SCENARIOS = RC_SCENARIOS + DATAGRAM_SCENARIOS + PINGPONG_SCENARIOS


@functools.lru_cache(maxsize=None)
def run_digest(mode, fault):
    """Run one scenario once per process; returns ``(digest,
    events_processed, calls, peak_heap)``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run(mode, fault, monkeypatch)


def _run(mode, fault, monkeypatch):
    tracers = []
    build_testbed = harness.build_testbed

    def traced_testbed(*args, **kwargs):
        tb = build_testbed(*args, **kwargs)
        tracer = Tracer(tb.sim)
        for port in [h.port for h in tb.hosts] + list(tb.switch.ports):
            port.tracer = tracer
        tracers.append(tracer)
        return tb

    monkeypatch.setattr(harness, "build_testbed", traced_testbed)
    if isinstance(fault, str) and fault.startswith("pingpong-"):
        pair = VerbsEndpointPair.build(mode)
        size = int(fault.removeprefix("pingpong-"))
        latency, calls, heap = count_calls(
            pair.sim._heap, pair.pingpong_latency_us, size, iters=20, warmup=3
        )
        result = (latency,)
    else:
        loss = BernoulliLoss(fault, seed=3) if fault and fault != "chaos" else None
        pair = VerbsEndpointPair.build(mode, loss=loss)
        if fault == "chaos":
            pair.testbed.set_egress_faults(0, seeded_chaos(
                5, loss=BernoulliLoss(0.01, seed=5),
                reorder_prob=0.02, reorder_hold_ns=20 * US, dup_prob=0.01,
            ))
        out, calls, heap = count_calls(
            pair.sim._heap, pair.bandwidth_mbs, 16384, messages=40, window=8
        )
        result = (out["received_msgs"], out["received_bytes"])
    for qp in pair.qps:
        qp.close()
    pair.sim.run(until=pair.sim.now + SEC)

    h = hashlib.sha256()
    for rec in tracers[0].records:
        if rec.kind in ("tx", "rx") or rec.kind.startswith("drop."):
            frame = rec.fields["frame"]
            h.update(repr((rec.time, rec.kind, rec.fields["port"], frame.src,
                           frame.dst, frame.wire_size)).encode())
    h.update(repr(result + (pair.sim.now,)).encode())
    return h.hexdigest(), pair.sim.events_processed, calls, heap


def count_calls(heap, fn, *args, **kwargs):
    """Call ``fn``; returns ``(result, python_calls, peak_heap)``:
    the profiler's ``"call"`` events while it ran into ``repro`` code,
    the methods ``dataclass`` generates for it included, and the
    longest ``heap`` (a simulator's ``_heap``) seen at those events.  Standard-library frames
    (``enum`` internals and the like) are not counted, so the pin does
    not depend on the 3.11 patch release.  The cyclic collector is
    paused so no finalizer runs at a point that depends on earlier
    allocations."""
    calls = peak = 0

    def profile(frame, event, arg):
        nonlocal calls, peak
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_REPRO_DIR) or filename == "<string>":
                calls += 1
                if len(heap) > peak:
                    peak = len(heap)

    was_enabled = gc.isenabled()
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return result, calls, peak


def check_golden(mode, fault):
    digest, events = run_digest(mode, fault)[:2]
    assert digest == GOLDEN[(mode, fault)]
    assert events == EVENTS[(mode, fault)]


@pytest.mark.parametrize("mode,rate", RC_SCENARIOS)
def test_rc_wire_digest_matches_golden(mode, rate):
    check_golden(mode, rate)


@pytest.mark.parametrize("mode,fault", DATAGRAM_SCENARIOS)
def test_datagram_wire_digest_matches_golden(mode, fault):
    check_golden(mode, fault)


@pytest.mark.parametrize("mode,scenario", PINGPONG_SCENARIOS)
def test_pingpong_wire_digest_matches_golden(mode, scenario):
    check_golden(mode, scenario)


only_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="CALLS and HEAP are pinned for CPython 3.11, the CI version; "
    "other versions count differently (3.12 inlines comprehensions)",
)


@only_cpython_311
@pytest.mark.parametrize("mode,fault", ALL_SCENARIOS)
def test_python_calls_match_pinned(mode, fault):
    assert run_digest(mode, fault)[2] == CALLS[(mode, fault)]


@only_cpython_311
@pytest.mark.parametrize("mode,fault", ALL_SCENARIOS)
def test_peak_heap_matches_pinned(mode, fault):
    assert run_digest(mode, fault)[3] == HEAP[(mode, fault)]


if __name__ == "__main__":
    results = {key: run_digest(*key) for key in ALL_SCENARIOS}
    for name, column in (("GOLDEN", 0), ("EVENTS", 1), ("CALLS", 2), ("HEAP", 3)):
        print(f"{name} = {{")
        for key, row in results.items():
            print(f"    {key!r}: {row[column]!r},")
        print("}")
