"""SIP application tests (the Figs. 10-11 workload)."""

import pytest

from repro.apps.sip import messages
from repro.apps.sip.client import SipClient
from repro.apps.sip.server import _split_sip_stream
from repro.apps.sip.workload import (
    SIP_PORT, build_sip_testbed, measure_memory, measure_response_time,
)
from repro.core.socketif.interface import SOCK_DGRAM
from repro.memory.accounting import FootprintModel
from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss, PatternLoss

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

    def test_every_held_call_ends_before_memory_is_read(self):
        # 100 BYEs at once overrun the server's 32-slot receive pool;
        # the resent ones end every call before the final reading.
        built = []

        def build(mode, **kwargs):
            built.append(build_sip_testbed(mode, **kwargs))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.apps.sip.workload.build_sip_testbed", build)
            result = measure_memory("ud", 100)
        assert result["final_bytes"] == FootprintModel().app_base_bytes
        assert built[0].server.active_calls == 0
        assert built[0].server.requests_handled == 300

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


def _sequential_calls(mode, seed, calls=10):
    """Fig. 10's sequential calls under 2 % loss on both hosts' egress;
    returns every client."""
    bed = build_sip_testbed(mode, pool_slots=4)
    for host in (0, 1):
        bed.testbed.set_egress_loss(host, BernoulliLoss(0.02, seed=2 * seed + host))
    clients = []

    def driver():
        for i in range(calls):
            client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                               mode=mode, user=f"user{i}")
            clients.append(client)
            yield client.run_call().finished
            yield 1 * MS

    bed.sim.run_until(bed.sim.process(driver()).finished, limit=RUN_LIMIT)
    return clients


class TestRetransmission:
    @pytest.mark.parametrize("mode", ["ud", "rc"])
    def test_every_call_completes_under_two_percent_loss(self, mode):
        clients = [c for seed in range(1, 11) for c in _sequential_calls(mode, seed)]
        assert [c.calls_completed for c in clients] == [1] * 100

    def test_a_lost_final_response_is_recovered_by_resending(self):
        # Host 0 sends 200 (REGISTER), 180, 200 (INVITE), then, after
        # the INVITE is resent, 180, 200 and 200 (BYE): every third of
        # its frames is lost, so the INVITE and the BYE are each sent
        # twice.
        bed = build_sip_testbed("ud")
        loss = PatternLoss(every_nth=3)
        bed.testbed.set_egress_loss(0, loss)
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT))
        bed.sim.run_until(client.run_call(do_register=True).finished, limit=RUN_LIMIT)
        assert not client.failed
        assert client.calls_completed == 1
        assert len(client.response_times_ns) == 1
        assert loss.dropped == 2
        assert bed.server.requests_handled == 6  # REGISTER, 2 INVITE, ACK, 2 BYE
        assert bed.server.total_calls == 1
        assert bed.server.active_calls == 0

    def test_a_response_to_another_request_does_not_end_a_transaction(self):
        # A stale 200 for the INVITE waits in the client's socket when
        # the BYE goes out, and the BYE (the client's third frame) is
        # lost: the client must skip the stale 200 and resend the BYE.
        bed = build_sip_testbed("ud")
        bed.testbed.set_egress_loss(1, PatternLoss(every_nth=3))
        sim = bed.sim
        release = sim.future()
        established = {"count": 0, "target": 1, "future": sim.future()}
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT))
        call = client.hold_call(established, release)
        sim.run_until(established["future"], limit=RUN_LIMIT)
        invite = messages.build_request("INVITE", "call-1@client.example.invalid", 1)
        stale = messages.build_response(invite, 200, "OK").encode()
        fd = bed.server_api.socket(SOCK_DGRAM)
        bed.server_api.sendto(fd, stale, bed.client_api.getsockname(client._fd))
        sim.run(until=sim.now + 10 * MS)
        release.set_result(True)
        sim.run_until(call.finished, limit=RUN_LIMIT)
        assert client.calls_completed == 1
        assert bed.server.requests_handled == 3  # INVITE, ACK, the resent BYE
        assert bed.server.active_calls == 0

    def test_a_dead_rc_stream_fails_the_call_without_a_resend(self):
        # RC never resends: a receive that ends because the QP went into
        # ERROR fails the call, where a resend would raise SocketError.
        bed = build_sip_testbed("rc")
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT), mode="rc")

        def kill_the_client_qp(data, key, send):
            bed.client_api._sock(client._fd).qp._enter_error("test")

        bed.server._handle = kill_the_client_qp
        bed.sim.run_until(client.run_call().finished, limit=RUN_LIMIT)
        assert client.failed
        assert client.calls_completed == 0
        assert client.response_times_ns == []
