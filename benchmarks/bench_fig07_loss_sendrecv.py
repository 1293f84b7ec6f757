"""Figure 7: UD send/recv bandwidth under packet loss.

Paper shape: whole-message delivery makes multi-packet messages collapse
under loss — 0.1 % already hurts at 1 MB, 5 % zeroes everything above
~64 KB; small (single-fragment) messages barely notice.
"""

from conftest import RESULTS_DIR, run_once

from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import attach_metrics, print_table, save_json
from repro.simnet.loss import BernoulliLoss

SIZES = (1024, 16384, 65536, 262144, 1048576)
RATES = (0.001, 0.005, 0.01, 0.05)


def _sweep(mode):
    data = {}
    for size in SIZES:
        data[size] = {}
        for rate in RATES:
            pair = VerbsEndpointPair.build(mode, loss=BernoulliLoss(rate, seed=11))
            out = pair.bandwidth_mbs(size, messages=max(30, min(400, (4 << 20) // size)))
            data[size][rate] = round(out["mbs"], 1)
    return data


def test_fig07_ud_sendrecv_under_loss(benchmark):
    data = run_once(benchmark, lambda: _sweep("ud_sendrecv"))
    rows = [[f"{s}B"] + [data[s][r] for r in RATES] for s in SIZES]
    print_table(
        "Fig. 7 UD send/recv bandwidth under loss (MB/s)",
        ["size"] + [f"{r:.1%}" for r in RATES],
        rows,
    )
    save_json(RESULTS_DIR / "fig07_loss_sendrecv.json", {str(k): v for k, v in data.items()})

    # Small messages are nearly loss-insensitive.
    assert data[1024][0.05] > 0.8 * data[1024][0.001]
    # Large messages collapse: 1 MB at 0.5 % already devastated.
    assert data[1048576][0.005] < 0.3 * data[1048576][0.001] + 10
    # 5 % loss zeroes everything at/above 256 KB.
    assert data[262144][0.05] < 5
    assert data[1048576][0.05] < 5
    # Monotone in loss rate for multi-packet sizes.
    for size in (65536, 262144, 1048576):
        series = [data[size][r] for r in RATES]
        assert all(a >= b - 5 for a, b in zip(series, series[1:]))


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
    rows = [
        [name,
         d["mbs"], d["retransmissions"], d["fast_retransmits"],
         d["timeouts"], d["backoff_events"]]
        for name, d in out.items()
    ]
    print_table(
        "Fig. 7 RD send/recv @ 5% loss: adaptive vs fixed RTO",
        ["llp", "MB/s", "rtx", "fast_rtx", "timeouts", "backoffs"],
        rows,
    )
    save_json(RESULTS_DIR / "fig07_rd_reliability.json", out)

    # Both LLPs deliver everything; the adaptive one is measurably faster.
    assert out["adaptive"]["received_msgs"] == 120
    assert out["fixed_5ms"]["received_msgs"] == 120
    assert out["adaptive"]["mbs"] > out["fixed_5ms"]["mbs"]
    # The mechanism: losses repaired by fast retransmit (RTT-scale)
    # instead of waiting out fixed 5 ms timeouts.
    assert out["adaptive"]["fast_retransmits"] >= 1
    assert out["fixed_5ms"]["fast_retransmits"] == 0
