"""Figure 7: UD send/recv bandwidth under packet loss; claim 11 of
``repro.bench.claims``.

Whole-message delivery makes multi-packet messages collapse under loss,
while small (single-fragment) messages barely notice.
"""

from conftest import loss_sweep, run_once

from repro.bench.claims import RESULTS_DIR, check
from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import attach_metrics, save_json
from repro.simnet.loss import BernoulliLoss

SIZES = (1024, 16384, 65536, 262144, 1048576)


def test_fig07_ud_sendrecv_under_loss(benchmark):
    data = run_once(benchmark, lambda: loss_sweep("ud_sendrecv", SIZES))
    save_json(RESULTS_DIR / "fig07_loss_sendrecv.json", data)
    check("fig07")


def test_fig07_rd_reliability_adaptive_vs_fixed(benchmark):
    """RD mode at the paper's worst loss point (5 %): the adaptive-RTO /
    fast-retransmit LLP against the legacy fixed 5 ms RTO, with the
    retransmission counters that explain the gap."""

    def run():
        out = {}
        for name, rd_opts in (
            ("adaptive", None),
            ("fixed_5ms", {"adaptive": False, "rto_ns": 5_000_000}),
        ):
            pair = VerbsEndpointPair.build(
                "rd_sendrecv",
                loss=BernoulliLoss(0.05, seed=11),
                rd_opts=rd_opts,
                metrics=True,
            )
            bw = pair.bandwidth_mbs(16384, messages=120, window=16)
            out[name] = {
                "mbs": round(bw["mbs"], 1),
                "received_msgs": bw["received_msgs"],
                **pair.repair_stats(),
            }
            attach_metrics(out[name], pair.metrics_snapshot())
        return out

    out = run_once(benchmark, run)
    save_json(RESULTS_DIR / "fig07_rd_reliability.json", out)
    check("fig07_rd")

    # Both LLPs deliver everything; the adaptive one is measurably faster.
    assert out["adaptive"]["received_msgs"] == 120
    assert out["fixed_5ms"]["received_msgs"] == 120
    assert out["adaptive"]["mbs"] > out["fixed_5ms"]["mbs"]
    # The mechanism: losses repaired by fast retransmit (RTT-scale)
    # instead of waiting out fixed 5 ms timeouts.
    assert out["adaptive"]["fast_retransmits"] >= 1
    assert out["fixed_5ms"]["fast_retransmits"] == 0
