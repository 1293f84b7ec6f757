"""SIP server edge cases: parse errors, CANCEL, OPTIONS, RC disconnects,
memory bookkeeping on abnormal paths."""

import pytest

from repro.apps.sip import messages
from repro.apps.sip.client import SipClient
from repro.apps.sip.server import SipAppConfig, _split_sip_stream
from repro.apps.sip.workload import SIP_PORT, build_sip_testbed
from repro.core.socketif.interface import SOCK_DGRAM
from repro.simnet.engine import MS, SEC

RUN_LIMIT = 600 * SEC


def _raw_dgram_send(bed, payload: bytes):
    """Fire an arbitrary datagram at the server through the client shim."""
    fd = bed.client_api.socket(SOCK_DGRAM)
    bed.client_api.sendto(fd, payload, (0, SIP_PORT))
    return fd


class TestServerRobustness:
    def test_garbage_datagram_counted_not_fatal(self):
        bed = build_sip_testbed("ud")
        _raw_dgram_send(bed, b"\x00\x01\x02 not sip at all")
        bed.sim.run(until=100 * MS)
        assert bed.server.parse_errors == 1
        # Server still serves real calls afterwards.
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT))
        proc = client.run_call()
        bed.sim.run_until(proc.finished, limit=RUN_LIMIT)
        assert not client.failed

    def test_options_ping(self):
        bed = build_sip_testbed("ud")
        result = {}

        def probe():
            fd = bed.client_api.socket(SOCK_DGRAM)
            msg = messages.build_request("OPTIONS", "ping-1", 1)
            bed.client_api.sendto(fd, msg.encode(), (0, SIP_PORT))
            got = yield bed.client_api.recvfrom_future(fd, 8192, timeout_ns=2 * SEC)
            result["resp"] = messages.parse(bytes(got[0]))

        done = bed.sim.process(probe()).finished
        bed.sim.run_until(done, limit=RUN_LIMIT)
        assert result["resp"].status == 200
        # OPTIONS creates no call state.
        assert bed.server.active_calls == 0

    def test_cancel_acknowledged(self):
        bed = build_sip_testbed("ud")
        result = {}

        def probe():
            fd = bed.client_api.socket(SOCK_DGRAM)
            msg = messages.build_request("CANCEL", "c-1", 1)
            bed.client_api.sendto(fd, msg.encode(), (0, SIP_PORT))
            got = yield bed.client_api.recvfrom_future(fd, 8192, timeout_ns=2 * SEC)
            result["resp"] = messages.parse(bytes(got[0]))

        done = bed.sim.process(probe()).finished
        bed.sim.run_until(done, limit=RUN_LIMIT)
        assert result["resp"].status == 200

    def test_duplicate_invite_creates_one_call(self):
        bed = build_sip_testbed("ud")

        def probe():
            fd = bed.client_api.socket(SOCK_DGRAM)
            msg = messages.build_request("INVITE", "dup-call", 1).encode()
            bed.client_api.sendto(fd, msg, (0, SIP_PORT))
            bed.client_api.sendto(fd, msg, (0, SIP_PORT))  # retransmission
            for _ in range(4):
                yield bed.client_api.recvfrom_future(fd, 8192, timeout_ns=2 * SEC)

        done = bed.sim.process(probe()).finished
        bed.sim.run_until(done, limit=RUN_LIMIT)
        assert bed.server.total_calls == 1

    def test_a_resent_request_is_answered_as_the_first_was(self):
        # A UD client recovers a lost response by resending the request,
        # so the server answers a known INVITE again without a new
        # call, and a BYE for an ended call with 200.
        bed = build_sip_testbed("ud")
        answers = []

        def send(fd, method, cseq, replies):
            msg = messages.build_request(method, "again", cseq).encode()
            bed.client_api.sendto(fd, msg, (0, SIP_PORT))
            for _ in range(replies):
                got = yield bed.client_api.recvfrom_future(fd, 8192, timeout_ns=2 * SEC)
                answers.append((method, messages.parse(bytes(got[0])).status))

        def probe():
            fd = bed.client_api.socket(SOCK_DGRAM)
            for _ in range(2):
                yield from send(fd, "INVITE", 1, 2)
                answers.append(("app_call", bed.meter.count("app_call")))
            for _ in range(2):
                yield from send(fd, "BYE", 2, 1)

        bed.sim.run_until(bed.sim.process(probe()).finished, limit=RUN_LIMIT)
        invite = [("INVITE", 180), ("INVITE", 200), ("app_call", 1)]
        assert answers == invite + invite + [("BYE", 200), ("BYE", 200)]
        assert bed.server.total_calls == 1
        assert bed.server.active_calls == 0

    def test_bye_without_invite_still_200(self):
        bed = build_sip_testbed("ud")
        result = {}

        def probe():
            fd = bed.client_api.socket(SOCK_DGRAM)
            msg = messages.build_request("BYE", "ghost", 1)
            bed.client_api.sendto(fd, msg.encode(), (0, SIP_PORT))
            got = yield bed.client_api.recvfrom_future(fd, 8192, timeout_ns=2 * SEC)
            result["resp"] = messages.parse(bytes(got[0]))

        done = bed.sim.process(probe()).finished
        bed.sim.run_until(done, limit=RUN_LIMIT)
        assert result["resp"].status == 200
        assert bed.server.active_calls == 0

    def test_ud_client_memory_freed_on_last_bye(self):
        bed = build_sip_testbed("ud")
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT))
        proc = client.run_call()
        bed.sim.run_until(proc.finished, limit=RUN_LIMIT)
        bed.sim.run(until=bed.sim.now + 100 * MS)
        # §VI.B.2's UD bookkeeping: the port's state is torn down when
        # its calls end.
        assert bed.meter.count("udp_socket") == 0
        assert bed.meter.count("ud_qp") == 0

    def test_rc_client_memory_freed_on_disconnect(self):
        bed = build_sip_testbed("rc")
        client = SipClient(bed.client_api, bed.testbed.hosts[1], (0, SIP_PORT),
                           mode="rc")
        proc = client.run_call()
        bed.sim.run_until(proc.finished, limit=RUN_LIMIT)
        # The client closed its connection after the call; the server's
        # per-connection state must drain (recv timeout path).
        bed.sim.run(until=bed.sim.now + 11 * SEC)
        assert bed.meter.count("tcp_socket") == 0


class TestAppConfig:
    def test_invalid_modes_rejected(self):
        from repro.apps.sip.server import SipServer

        with pytest.raises(ValueError):
            SipServer(None, None, mode="carrier-pigeon")
        with pytest.raises(ValueError):
            SipClient(None, None, (0, 1), mode="smoke-signals")

    def test_config_defaults(self):
        cfg = SipAppConfig()
        assert cfg.parse_ns > 0 and cfg.build_ns > 0
        assert cfg.rc_accept_ns > cfg.rc_connect_ns > 0


class TestStreamSplitter:
    def test_no_content_length_defaults_zero(self):
        raw = b"OPTIONS sip:x SIP/2.0\r\nVia: z\r\n\r\n"
        msg, rest = _split_sip_stream(raw + b"NEXT")
        assert msg == raw
        assert rest == b"NEXT"

    def test_bad_content_length_treated_as_zero(self):
        raw = b"OPTIONS sip:x SIP/2.0\r\nContent-Length: soup\r\n\r\n"
        msg, rest = _split_sip_stream(raw)
        assert msg == raw and rest == b""

    def test_body_split_exact(self):
        raw = b"INVITE sip:x SIP/2.0\r\nContent-Length: 4\r\n\r\nBODY"
        msg, rest = _split_sip_stream(raw + b"tail")
        assert msg == raw and rest == b"tail"
