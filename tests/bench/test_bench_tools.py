"""Tests for the benchmark harness, report helpers, and cost model."""

import pytest

from repro.bench.claims import VERBS_MODES, broken, load_results
from repro.bench.harness import BenchError, MODES, VerbsEndpointPair, send_pattern
from repro.bench.report import load_json, save_json
from repro.models.costs import CostModel, default_cost_model, zero_cost_model
from repro.models.platform import Platform, paper_defaults


class TestCostModel:
    def test_defaults_positive(self):
        m = default_cost_model()
        for name, value in m.describe().items():
            assert value >= 0, name

    def test_zero_model_all_zero(self):
        z = zero_cost_model()
        assert all(v == 0 for v in z.describe().values())

    def test_crc_helper(self):
        m = CostModel(crc_fixed_ns=100, crc_per_byte_ns=2.0)
        assert m.crc_ns(50) == 200

    def test_copy_helper(self):
        m = CostModel(copy_per_byte_ns=0.5)
        assert m.copy_ns(1000) == 500

    def test_with_overrides_is_a_copy(self):
        m = default_cost_model()
        m2 = m.with_overrides(syscall_ns=1)
        assert m2.syscall_ns == 1
        assert m.syscall_ns != 1

    def test_describe_covers_all_fields(self):
        m = default_cost_model()
        assert set(m.describe()) == set(CostModel.__dataclass_fields__)


class TestPlatform:
    def test_paper_testbed_values(self):
        p = Platform.paper_testbed()
        assert p.link_bandwidth_bps == 10e9
        assert p.mtu == 1500

    def test_wan_variant(self):
        p = Platform.wan_like(delay_us=5000)
        assert p.link_delay_ns == 5_000_000

    def test_paper_defaults_pair(self):
        platform, costs = paper_defaults()
        assert isinstance(platform, Platform)
        assert isinstance(costs, CostModel)


class TestReport:
    def test_save_and_load_json(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        save_json(path, {"x": [1, 2]})
        assert load_json(path) == {"x": [1, 2]}


class TestHarness:
    def test_unknown_mode_rejected(self):
        with pytest.raises(BenchError):
            VerbsEndpointPair.build("carrier_pigeon")

    def test_all_modes_build(self):
        for mode in MODES:
            pair = VerbsEndpointPair.build(mode)
            assert pair.qps[0] is not None and pair.qps[1] is not None

    def test_oversized_message_rejected(self):
        pair = VerbsEndpointPair.build("ud_sendrecv")
        with pytest.raises(BenchError):
            pair.pingpong_latency_us(VerbsEndpointPair.MAX_MSG + 1)

    def test_latency_is_deterministic(self):
        a = VerbsEndpointPair.build("ud_sendrecv").pingpong_latency_us(64, iters=6)
        b = VerbsEndpointPair.build("ud_sendrecv").pingpong_latency_us(64, iters=6)
        assert a == b

    def test_bandwidth_counts_every_message_lossless(self):
        pair = VerbsEndpointPair.build("ud_write_record")
        out = pair.bandwidth_mbs(4096, messages=50)
        assert out["received_msgs"] == 50
        assert out["received_bytes"] == 50 * 4096
        assert out["mbs"] > 0

    def test_rc_write_flag_receiver_counts(self):
        pair = VerbsEndpointPair.build("rc_rdma_write")
        out = pair.bandwidth_mbs(8192, messages=20)
        assert out["received_msgs"] == 20

    def test_zero_cost_model_much_faster(self):
        fast = VerbsEndpointPair.build(
            "ud_sendrecv", costs=zero_cost_model()
        ).pingpong_latency_us(64, iters=6)
        normal = VerbsEndpointPair.build("ud_sendrecv").pingpong_latency_us(64, iters=6)
        assert fast < normal / 5  # only wire time remains

    def test_send_bytes_are_written_when_first_sent(self):
        pair = VerbsEndpointPair.build("ud_sendrecv")
        for src, size in ((0, 300), (1, 64), (0, 5000), (0, 100)):
            pair._post_message(src, size)
            assert bytes(pair.send_mrs[src].view(0, size)) == send_pattern(src, size)
        assert bytes(pair.send_mrs[0].view(5000, 64)) == bytes(64)  # never sent
        assert send_pattern(1, 512) == send_pattern(1, 256) * 2
        assert send_pattern(0, 3) == bytes([0, 31, 62])


class TestCalibrationAnchors:
    def test_latency_anchors_within_band(self):
        """Live 64 B and 2 KB ping-pongs, in place of the committed Fig. 5
        points, hold claims 1–4 (the small-message latency anchors and
        UD's latency gain up to 2 KB)."""
        results = load_results()
        for mode in VERBS_MODES:
            for panel, size in (("small", 64), ("medium", 2048)):
                results[f"fig05_{panel}"][mode][str(size)] = (
                    VerbsEndpointPair.build(mode).pingpong_latency_us(size, iters=10))
        assert broken(results, "1", "2", "3", "4") == []
