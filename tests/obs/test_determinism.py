"""Metrics must be invisible to the simulation.

The core promise of ``repro.obs`` (DESIGN.md §8): instrument creation,
counter increments, and span recording never schedule events, never
branch protocol logic, and never perturb RNG state — so a run with
metrics enabled is *bit-identical* to the same run with metrics
disabled.  This test replays the chaos RUDP scenario both ways and
compares the full wire-level trace: every record of the simulator's
frame-trace sink (``sim.tracer``), reduced to event time, kind, port,
addresses and payload size, plus delivery order and times and the
final clock, must match exactly.
"""

from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS, SEC, US
from repro.simnet.faults import seeded_chaos
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.simnet.trace import Tracer
from repro.transport.ip import IpStack
from repro.transport.rudp import RudpSocket
from repro.transport.udp import UdpStack


def _canon(record):
    """A trace record as comparable plain data (the frame object itself
    differs between runs)."""
    frame = record.fields["frame"]
    return (
        record.time, record.kind, record.fields["port"],
        frame.src, frame.dst, frame.payload_size,
    )


def _run_chaos_scenario(metrics: bool):
    tb = build_testbed(2, costs=zero_cost_model(), metrics=metrics)
    if metrics:
        for h in tb.hosts:
            h.wr_tracer = Tracer(tb.sim)
    tb.sim.tracer = tracer = Tracer(tb.sim)

    socks = []
    for i in (0, 1):
        host = tb.hosts[i]
        udp = UdpStack(host, IpStack(host))
        socks.append(RudpSocket(udp.socket(6000), rto_ns=1 * MS))
    a, b = socks
    tb.set_egress_faults(0, seeded_chaos(
        3,
        loss=BernoulliLoss(0.05, seed=3),
        reorder_prob=0.10,
        reorder_hold_ns=300 * US,
        dup_prob=0.05,
        flap_windows=[(10 * MS, 15 * MS)],
    ))
    tb.set_egress_loss(1, BernoulliLoss(0.03, seed=103))

    got = []
    b.on_message = lambda d, src: got.append((d, tb.sim.now))

    def sender():
        for i in range(100):
            a.sendto(f"det-{i}".encode(), (1, 6000))
            yield 200 * US

    tb.sim.process(sender())
    tb.sim.run(until=5 * SEC)

    wire = [_canon(r) for r in tracer.records]
    wire.sort()
    return {
        "wire": wire,
        "delivered": got,
        "now": tb.sim.now,
        "registry_samples": len(tb.registry.collect()),
    }


def test_enabled_metrics_do_not_perturb_the_simulation():
    enabled = _run_chaos_scenario(metrics=True)
    disabled = _run_chaos_scenario(metrics=False)

    # The observability actually observed something...
    assert enabled["registry_samples"] > 0
    assert disabled["registry_samples"] == 0
    # ...while the simulation itself is bit-identical.
    assert enabled["now"] == disabled["now"]
    assert enabled["delivered"] == disabled["delivered"]
    assert len(enabled["wire"]) == len(disabled["wire"])
    assert enabled["wire"] == disabled["wire"]
