"""Design-choice ablations called out in DESIGN.md.

* **MPA markers**: the §IV.A claim that marker insertion is a
  significant RC overhead — run RC send/recv with markers negotiated off.
* **CRC placement**: §V recommends disabling the UDP checksum because
  DDP always CRCs; quantify the double-checksum penalty.
* **Segmentation policy**: §IV.B.4's trade-off — large (64 KB) UD
  segments for clean LANs vs MTU-sized independent datagrams under loss.
* **Transport spectrum**: UD vs RD (reliable datagram) vs RC for the
  same workload — the paper's "supplemented by a reliability mechanism"
  story.

Their bounds are rows A1–A5 of ``repro.bench.claims``.
"""

from conftest import run_once

from repro.bench.claims import RESULTS_DIR, check
from repro.bench.harness import VerbsEndpointPair
from repro.bench.report import save_json
from repro.models.costs import default_cost_model
from repro.simnet.loss import BernoulliLoss


def test_ablation_mpa_markers(benchmark):
    """Markers on (standard) vs off: per-byte framing cost difference."""

    def run():
        out = {}
        for markers in (True, False):
            pair = VerbsEndpointPair.build("rc_sendrecv", markers=markers)
            out["markers_on" if markers else "markers_off"] = round(
                pair.bandwidth_mbs(262144, messages=30)["mbs"], 1
            )
        return out

    data = run_once(benchmark, run)
    data["markerless_gain_percent"] = round(
        100 * (data["markers_off"] / data["markers_on"] - 1), 1)
    save_json(RESULTS_DIR / "ablation_mpa.json", data)
    check("ablation_mpa")


def test_ablation_crc_placement(benchmark):
    """DDP CRC with UDP checksum disabled (recommended) vs both enabled."""

    def run():
        out = {}
        # Recommended configuration: UDP checksum off (the default model).
        pair = VerbsEndpointPair.build("ud_write_record")
        out["udp_checksum_off"] = round(
            pair.bandwidth_mbs(262144, messages=30)["mbs"], 1
        )
        # Redundant double-checksumming: charge the UDP sum too.
        costs = default_cost_model().with_overrides(udp_checksum_per_byte_ns=0.8)
        pair = VerbsEndpointPair.build("ud_write_record", costs=costs)
        pair.devices[0].net.udp.checksum_enabled = True
        pair.devices[1].net.udp.checksum_enabled = True
        out["udp_checksum_on"] = round(
            pair.bandwidth_mbs(262144, messages=30)["mbs"], 1
        )
        return out

    data = run_once(benchmark, run)
    data["double_checksum_penalty_percent"] = round(
        100 * (1 - data["udp_checksum_on"] / data["udp_checksum_off"]), 1)
    save_json(RESULTS_DIR / "ablation_crc.json", data)
    check("ablation_crc")


def test_ablation_segment_size_under_loss(benchmark):
    """§IV.B.4: 64 KB segments win on clean networks; MTU-sized
    independent datagrams are safer under loss."""

    def run():
        out = {}
        for label, seg, rate in (
            ("64K_clean", None, 0.0),
            ("mtu_clean", 1408, 0.0),
            ("64K_lossy", None, 0.01),
            ("mtu_lossy", 1408, 0.01),
        ):
            loss = BernoulliLoss(rate, seed=13) if rate else None
            pair = VerbsEndpointPair.build("ud_write_record", loss=loss)
            if seg is not None:
                for qp in pair.qps:
                    qp.max_seg_payload = seg
            out[label] = round(pair.bandwidth_mbs(262144, messages=30)["mbs"], 1)
        return out

    data = run_once(benchmark, run)
    save_json(RESULTS_DIR / "ablation_mtu.json", data)
    check("ablation_mtu")


def test_ablation_transport_spectrum(benchmark):
    """UD vs RD vs RC for 64 KB messages, clean and lossy."""

    def run():
        out = {}
        for mode in ("ud_sendrecv", "rd_sendrecv", "rc_sendrecv"):
            pair = VerbsEndpointPair.build(mode)
            out[f"{mode}_clean"] = round(
                pair.bandwidth_mbs(65536, messages=40, window=16)["mbs"], 1
            )
            pair = VerbsEndpointPair.build(mode, loss=BernoulliLoss(0.01, seed=5))
            res = pair.bandwidth_mbs(65536, messages=40, window=16)
            out[f"{mode}_lossy"] = round(res["mbs"], 1)
            out[f"{mode}_lossy_delivered"] = res["received_msgs"]
        return out

    data = run_once(benchmark, run)
    save_json(RESULTS_DIR / "ablation_transports.json", data)
    check("ablation_transports")
    # Lossy: the reliable transports deliver everything; raw UD does not.
    assert data["rd_sendrecv_lossy_delivered"] == 40
    assert data["rc_sendrecv_lossy_delivered"] == 40
    assert data["ud_sendrecv_lossy_delivered"] < 40


def test_ablation_llp_tcp_vs_sctp(benchmark):
    """The standard's two LLPs head-to-head: RC over TCP+MPA vs RC over
    SCTP (message boundaries, no MPA) vs the paper's UD path — §IV.A's
    transport discussion quantified."""

    def run():
        out = {}
        for mode in ("rc_sendrecv", "rcsctp_sendrecv", "ud_sendrecv"):
            lat = VerbsEndpointPair.build(mode).pingpong_latency_us(64, iters=10)
            bw = VerbsEndpointPair.build(mode).bandwidth_mbs(
                262144, messages=24
            )["mbs"]
            out[mode] = {"latency_64B_us": round(lat, 1),
                         "bandwidth_256K_mbs": round(bw, 1)}
        return out

    data = run_once(benchmark, run)
    save_json(RESULTS_DIR / "ablation_llp.json", data)
    check("ablation_llp")
