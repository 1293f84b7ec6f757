"""SIP application tests (the Figs. 10-11 workload)."""

import pytest

from repro.apps.sip import messages
from repro.apps.sip.client import SipClient
from repro.apps.sip.server import _split_sip_stream
from repro.apps.sip.workload import (
    SIP_PORT, build_sip_testbed, measure_memory, measure_response_time,
)
from repro.memory.accounting import FootprintModel
from repro.simnet.engine import MS, SEC

RUN_LIMIT = 600 * SEC


class TestMessages:
    def test_request_roundtrip(self):
        msg = messages.build_request("INVITE", "call-1", 1)
        parsed = messages.parse(msg.encode())
        assert parsed.method == "INVITE"
        assert parsed.call_id == "call-1"
        assert "audio" in parsed.body  # SDP offer present

    def test_response_echoes_transaction_headers(self):
        req = messages.build_request("REGISTER", "call-2", 3)
        resp = messages.build_response(req, 200, "OK")
        parsed = messages.parse(resp.encode())
        assert parsed.status == 200
        assert parsed.call_id == "call-2"
        assert parsed.cseq == req.headers["CSeq"]

    def test_realistic_sizes(self):
        invite = messages.build_request("INVITE", "c", 1).encode()
        assert 400 < len(invite) < 800
        bye = messages.build_request("BYE", "c", 2).encode()
        assert 250 < len(bye) < 600

    def test_parse_errors(self):
        with pytest.raises(messages.SipParseError):
            messages.parse(b"")
        with pytest.raises(messages.SipParseError):
            messages.parse(b"GARBAGE LINE\r\n\r\n")
        with pytest.raises(messages.SipParseError):
            messages.parse(b"SIP/2.0 abc\r\n\r\n")
        with pytest.raises(messages.SipParseError):
            messages.parse(b"\xff\xfe")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            messages.build_request("TEACH", "c", 1)

    def test_stream_splitter_content_length_framing(self):
        m1 = messages.build_request("INVITE", "a", 1).encode()
        m2 = messages.build_request("BYE", "b", 2).encode()
        buf = m1 + m2
        first, rest = _split_sip_stream(buf)
        assert first == m1
        second, rest = _split_sip_stream(rest)
        assert second == m2 and rest == b""
        # Partial message: nothing extracted.
        partial, rest = _split_sip_stream(m1[: len(m1) - 3])
        assert partial is None


class TestCalls:
    @pytest.mark.parametrize("mode", ["ud", "rc"])
    def test_full_call_flow(self, mode):
        bed = build_sip_testbed(mode)
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                           mode=mode)
        proc = client.run_call()
        bed.sim.run_until(proc.finished, limit=RUN_LIMIT)
        assert not client.failed
        assert client.calls_completed == 1
        assert len(client.response_times_ns) == 1
        assert bed.server.total_calls == 1
        assert bed.server.active_calls == 0  # BYE freed the call

    def test_register_flow(self):
        bed = build_sip_testbed("ud")
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT))
        proc = client.run_call(do_register=True)
        bed.sim.run_until(proc.finished, limit=RUN_LIMIT)
        assert not client.failed

    def test_response_time_ud_beats_rc(self):
        ud = measure_response_time("ud", calls=4)
        rc = measure_response_time("rc", calls=4)
        assert ud["mean_ms"] < rc["mean_ms"]  # Fig. 10 direction

    def test_response_time_repeats_in_one_process(self):
        # Call-IDs are numbered per client host, so a rerun sends the same
        # message sizes and reads the same mean.
        first = measure_response_time("rc", 15)
        assert measure_response_time("rc", 15) == first

    def test_memory_measurement_matches_model(self):
        fm = FootprintModel()
        result = measure_memory("ud", 20)
        assert result["high_water_bytes"] == fm.ud_total(20)
        result = measure_memory("rc", 20)
        assert result["high_water_bytes"] == fm.rc_total(20)

    def test_memory_freed_after_calls_end(self):
        fm = FootprintModel()
        result = measure_memory("ud", 10)
        assert result["final_bytes"] == fm.app_base_bytes

    def test_server_counts_distinct_clients(self):
        bed = build_sip_testbed("ud")
        release = bed.sim.future()
        established = {"count": 0, "target": 5, "future": bed.sim.future()}
        clients = [
            SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                      user=f"u{i}")
            for i in range(5)
        ]
        for c in clients:
            c.hold_call(established, release)
        bed.sim.run_until(established["future"], limit=RUN_LIMIT)
        assert bed.server.active_calls == 5
        assert bed.meter.count("udp_socket") == 5
        release.set_result(True)
        bed.sim.run(until=bed.sim.now + 500 * MS)
        assert bed.server.active_calls == 0
        assert bed.meter.count("udp_socket") == 0
