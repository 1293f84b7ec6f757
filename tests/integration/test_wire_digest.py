"""Wire-digest goldens for the connected (RC) paths.

One :class:`Tracer` sits on every NIC and switch port from before the
connection handshake.  The digest hashes ``(time, kind, port, src, dst,
wire_size)`` of every tx, rx and drop record, then the delivered
message and byte counts and the final simulated clock.  A change that
keeps the wire trace identical keeps the digest; anything that moves
one frame by one nanosecond does not.

Each RC mode streams a short run lossless and at 1 % Bernoulli loss on
host 0's egress, then both sides close their QP so the teardown (TCP
FIN, SCTP SHUTDOWN) is on the wire too.

After a deliberate wire change, print fresh values with::

    PYTHONPATH=src python -m tests.integration.test_wire_digest
"""

import hashlib

import pytest

import repro.bench.harness as harness
from repro.bench.harness import VerbsEndpointPair
from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss
from repro.simnet.trace import Tracer

#: (mode, loss rate) -> digest of the run.
GOLDEN = {
    ('rc_sendrecv', 0.0): 'cbec5f83e4136868221f2cb20c65023f04a5761ac7bb89a230eaef8052339746',
    ('rc_sendrecv', 0.01): '008dc73587af7f6801248011c4adc43616c15c590fb54cb4b30be57515f7e904',
    ('rc_rdma_write', 0.0): '36dae7789449b6fedd86ebeb02804deff926143852e01fc4dd52ee5fa882e0aa',
    ('rc_rdma_write', 0.01): 'd2a5dda073ac2be32adb65dc5351b792950ec683bd4b3e4a08787fd69f6cc723',
    ('rcsctp_sendrecv', 0.0): 'e5cca8e74fe6ffde17133bbb86f31382a18f67355e260cfc490d56223d1b3405',
    ('rcsctp_sendrecv', 0.01): '87dd47b1a6c283f46ba6ffe93a01b23a59bf3ac0e48dfd54e4df48e0a26007df',
}

SCENARIOS = [
    (mode, rate)
    for mode in ("rc_sendrecv", "rc_rdma_write", "rcsctp_sendrecv")
    for rate in (0.0, 0.01)
]


def run_digest(mode, rate, monkeypatch):
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
    loss = BernoulliLoss(rate, seed=3) if rate else None
    pair = VerbsEndpointPair.build(mode, loss=loss)
    out = pair.bandwidth_mbs(16384, messages=40, window=8)
    for qp in pair.qps:
        qp.close()
    pair.sim.run(until=pair.sim.now + SEC)

    h = hashlib.sha256()
    for rec in tracers[0].records:
        if rec.kind in ("tx", "rx") or rec.kind.startswith("drop."):
            frame = rec.fields["frame"]
            h.update(repr((rec.time, rec.kind, rec.fields["port"], frame.src,
                           frame.dst, frame.wire_size)).encode())
    h.update(repr((out["received_msgs"], out["received_bytes"], pair.sim.now)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode,rate", SCENARIOS)
def test_rc_wire_digest_matches_golden(mode, rate, monkeypatch):
    assert run_digest(mode, rate, monkeypatch) == GOLDEN[(mode, rate)]


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    for mode, rate in SCENARIOS:
        with mp.context() as m:
            print(f"    ({mode!r}, {rate}): {run_digest(mode, rate, m)!r},")
