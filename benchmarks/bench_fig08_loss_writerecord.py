"""Figure 8: UD RDMA Write-Record bandwidth under packet loss; claims 12
and 13 of ``repro.bench.claims``.

Paper shape: partial placement keeps bandwidth high for messages larger
than the 64 KB UDP ceiling (each ~64 KB segment lands independently);
messages at or below one datagram remain all-or-nothing; very high loss
(~5 %) still breaks large messages because the *final* segment must
arrive for the validity declaration.
"""

from conftest import loss_sweep, run_once

from repro.bench.claims import RESULTS_DIR, check
from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import attach_metrics, save_json
from repro.simnet.loss import BernoulliLoss

SIZES = (1024, 16384, 49152, 65536, 262144, 1048576)


def _contrast():
    """The paper's partial-delivery payoff in one number: 1 MB at 1 % loss,
    Write-Record against send/recv."""
    out = {}
    for mode in ("ud_sendrecv", "ud_write_record"):
        pair = VerbsEndpointPair.build(mode, loss=BernoulliLoss(0.01, seed=11))
        out[mode] = pair.bandwidth_mbs(1 << 20, messages=30)["mbs"]
    return out


def test_fig08_write_record_under_loss(benchmark):
    data, contrast = run_once(
        benchmark, lambda: (loss_sweep("ud_write_record", SIZES), _contrast()))
    save_json(RESULTS_DIR / "fig08_loss_writerecord.json", data)
    save_json(RESULTS_DIR / "fig08_contrast.json", contrast)
    check("fig08")


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
    save_json(RESULTS_DIR / "fig08_rd_writerecord_reliability.json", out)
    check("fig08_rd")

    for d in out.values():
        assert d["received_msgs"] == 30  # reliability: every message whole
        assert d["partial_msgs"] == 0
        assert d["retransmissions"] >= 1  # loss really was repaired
