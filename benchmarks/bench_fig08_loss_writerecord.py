"""Figure 8: UD RDMA Write-Record bandwidth under packet loss.

Paper shape: partial placement keeps bandwidth high for messages larger
than the 64 KB UDP ceiling (each ~64 KB segment lands independently);
messages at or below one datagram remain all-or-nothing; very high loss
(~5 %) still breaks large messages because the *final* segment must
arrive for the validity declaration.
"""

from conftest import RESULTS_DIR, run_once

from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import attach_metrics, print_table, save_json
from repro.simnet.loss import BernoulliLoss

SIZES = (1024, 16384, 49152, 65536, 262144, 1048576)
RATES = (0.001, 0.005, 0.01, 0.05)


def _sweep():
    data = {}
    for size in SIZES:
        data[size] = {}
        for rate in RATES:
            pair = VerbsEndpointPair.build(
                "ud_write_record", loss=BernoulliLoss(rate, seed=11)
            )
            out = pair.bandwidth_mbs(size, messages=max(30, min(400, (4 << 20) // size)))
            data[size][rate] = round(out["mbs"], 1)
    return data


def test_fig08_write_record_under_loss(benchmark):
    data = run_once(benchmark, _sweep)
    rows = [[f"{s}B"] + [data[s][r] for r in RATES] for s in SIZES]
    print_table(
        "Fig. 8 UD RDMA Write-Record bandwidth under loss (MB/s)",
        ["size"] + [f"{r:.1%}" for r in RATES],
        rows,
    )
    save_json(RESULTS_DIR / "fig08_loss_writerecord.json", {str(k): v for k, v in data.items()})

    # The Fig. 8 signature: above 64 KB, partial placement holds the
    # curve up where send/recv would collapse (compare bench_fig07).
    assert data[262144][0.01] > 150
    assert data[1048576][0.01] > 150
    # The sub-64KB cliff: a ~48 KB message is one datagram, all-or-
    # nothing, so 5 % loss is catastrophic relative to the paper's
    # "drop at 64 KB" discussion.
    assert data[49152][0.05] < data[262144][0.01]
    # Loss of the final segment still kills large messages at 5 %.
    assert data[1048576][0.05] < 0.25 * data[1048576][0.001]


def test_fig08_vs_fig07_contrast(benchmark):
    """The paper's partial-delivery payoff in one number."""

    def run():
        out = {}
        for mode in ("ud_sendrecv", "ud_write_record"):
            pair = VerbsEndpointPair.build(mode, loss=BernoulliLoss(0.01, seed=11))
            out[mode] = pair.bandwidth_mbs(1 << 20, messages=30)["mbs"]
        return out

    out = run_once(benchmark, run)
    print(f"\n1 MB @ 1% loss: send/recv {out['ud_sendrecv']:.1f} MB/s, "
          f"Write-Record {out['ud_write_record']:.1f} MB/s")
    save_json(RESULTS_DIR / "fig08_contrast.json", out)
    assert out["ud_write_record"] > 10 * max(out["ud_sendrecv"], 1)


def test_fig08_rd_write_record_reliability_stats(benchmark):
    """Reliable Write-Record under loss: full delivery (no partial
    messages survive to the application) plus the LLP repair counters
    behind it, recorded per loss rate."""

    def run():
        out = {}
        for rate in (0.01, 0.05):
            pair = VerbsEndpointPair.build(
                "rd_write_record", loss=BernoulliLoss(rate, seed=11),
                metrics=True,
            )
            bw = pair.bandwidth_mbs(262144, messages=30, window=8)
            out[f"{rate:.0%}"] = {
                "mbs": round(bw["mbs"], 1),
                "received_msgs": bw["received_msgs"],
                "partial_msgs": bw["partial_msgs"],
                **pair.repair_stats(),
            }
            attach_metrics(out[f"{rate:.0%}"], pair.metrics_snapshot())
        return out

    out = run_once(benchmark, run)
    rows = [
        [rate, d["mbs"], d["received_msgs"], d["partial_msgs"],
         d["retransmissions"], d["fast_retransmits"], d["backoff_events"]]
        for rate, d in out.items()
    ]
    print_table(
        "Fig. 8 RD Write-Record under loss (256 KB messages)",
        ["loss", "MB/s", "complete", "partial", "rtx", "fast_rtx", "backoffs"],
        rows,
    )
    save_json(RESULTS_DIR / "fig08_rd_writerecord_reliability.json", out)

    for d in out.values():
        assert d["received_msgs"] == 30  # reliability: every message whole
        assert d["partial_msgs"] == 0
        assert d["retransmissions"] >= 1  # loss really was repaired
