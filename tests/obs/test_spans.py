"""Golden WR-lifecycle span sequences.

Two seeded 10 %-loss scenarios, each asserting the *exact ordered*
span stream on both hosts — post → segmentation → wire → (repair) →
delivery → CQE.  These sequences are the observable contract of the
span layer: if an instrumentation point moves, disappears, or
double-fires, the golden breaks.

Zero-cost models and fixed seeds make both runs fully deterministic;
spans carry no frame ids, so the sequences are stable run to run.
"""

from repro.bench.harness import VerbsEndpointPair
from repro.models.costs import zero_cost_model
from repro.obs import merge_timelines, spans, stage_sequence
from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss


def test_golden_rc_rdma_write_spans_under_loss():
    """One 8 KB RC RDMA Write through 10 % sender-egress loss: TCP
    carries six MSS segments, repairs the losses with two RTO
    retransmissions, and the target sees six in-order deliveries.  The
    send CQE follows the last wire span and precedes the repairs — RC
    send completions occur at LLP handoff (§IV of the paper), not at
    delivery."""
    pair = VerbsEndpointPair.build(
        "rc_rdma_write", costs=zero_cost_model(),
        loss=BernoulliLoss(0.10, seed=42), metrics=True,
    )
    t0, t1 = pair.enable_spans()
    pair._post_message(0, 8192, signaled=True)
    pair.sim.run(until=1 * SEC)

    assert stage_sequence(t0) == (
        ["post", "segment"] + ["wire"] * 6 + ["cqe"] + ["retransmit"] * 2
    )
    assert stage_sequence(t1) == ["delivery"] * 6

    post = next(iter(spans(t0, stage="post")))
    assert post.fields["op"] == "rdma_write"
    seg = next(iter(spans(t0, stage="segment")))
    assert seg.fields["nsegs"] == 6
    cqe = next(iter(spans(t0, stage="cqe")))
    assert cqe.fields["queue"] == "sq" and cqe.fields["status"] == "success"
    for r in spans(t0, stage="wire"):
        assert r.fields["proto"] == "tcp"
    for r in spans(t0, stage="retransmit"):
        assert r.fields["proto"] == "tcp" and r.fields["cause"] == "rto"

    # Sim-timestamps order the merged two-host timeline: the post is
    # first, and every delivery happens after the first wire.
    merged = merge_timelines(t0, t1)
    assert merged[0].fields["stage"] == "post"
    first_wire = next(r.time for r in merged if r.fields["stage"] == "wire")
    assert all(r.time >= first_wire for r in merged
               if r.fields["stage"] == "delivery")


def test_golden_ud_write_record_spans_under_loss():
    """One 256 KB UD Write-Record through 10 % loss: five ~64 KB
    datagrams leave the wire (the fifth flagged ``last=True`` — it
    carries the validity declaration).  Each datagram spans ~44 IP
    fragments, so at 10 % frame loss most die; with this seed exactly
    the final segment survives.  Partial placement (§IV.B.2) still
    lands it and raises a completion whose validity map holds the one
    range — the span stream shows the whole story."""
    pair = VerbsEndpointPair.build(
        "ud_write_record", costs=zero_cost_model(),
        loss=BernoulliLoss(0.10, seed=11), metrics=True,
    )
    t0, t1 = pair.enable_spans()
    pair._post_message(0, 262144, signaled=True)
    pair.sim.run(until=1 * SEC)

    assert stage_sequence(t0) == ["post", "segment"] + ["wire"] * 5 + ["cqe"]
    assert stage_sequence(t1) == ["delivery", "cqe"]

    post = next(iter(spans(t0, stage="post")))
    assert post.fields["op"] == "rdma_write_record"
    seg = next(iter(spans(t0, stage="segment")))
    assert seg.fields["nsegs"] == 5
    wires = list(spans(t0, stage="wire"))
    assert [r.fields["last"] for r in wires] == [False] * 4 + [True]
    assert all(r.fields["proto"] == "udp" for r in wires)
    # No reliability layer under UD: nothing retransmits.
    assert list(spans(t0, stage="retransmit")) == []

    delivery = next(iter(spans(t1, stage="delivery")))
    assert delivery.fields["last"] is True  # the surviving segment
    cqe = next(iter(spans(t1, stage="cqe")))
    assert cqe.fields["queue"] == "rq" and cqe.fields["status"] == "success"
