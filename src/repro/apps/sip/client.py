"""SIP client (SIPp-uac-like): drives calls and measures response time.

The Fig. 10 metric — "the base response time for interaction with the
SIPp server ... under light load" — is the time from sending a request
to its first response arriving, *including* connection establishment on
RC (SIP-over-TCP opens a connection per dialog; the paper attributes
the UD win precisely "to the TCP overhead incurred").
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ...simnet.engine import MS, Simulator
from ...core.socketif.interface import SOCK_DGRAM, SOCK_STREAM
from . import messages
from .server import SipAppConfig, _split_sip_stream

Address = Tuple[int, int]

#: Call-ID numbers, one sequence per client host (one SIPp instance per
#: host): a Call-ID's length is part of every SIP message, so it must not
#: depend on what ran earlier in the process.
_host_call_numbers: WeakKeyDictionary[object, Iterator[int]] = WeakKeyDictionary()


class SipCallFailed(Exception):
    pass


class SipClient:
    """One user agent placing calls (its own socket = its own UDP port,
    matching the paper's one-port-per-client SIPp configuration)."""

    def __init__(
        self,
        api,
        host,
        server_addr: Address,
        mode: str = "ud",
        config: Optional[SipAppConfig] = None,
        user: str = "alice",
    ):
        if mode not in ("ud", "rc"):
            raise ValueError(f"unknown SIP transport mode {mode!r}")
        self.api = api
        self.host = host
        self.sim: Simulator = host.sim
        self.server_addr = server_addr
        self.mode = mode
        self.config = config or SipAppConfig()
        self.user = user
        self.response_times_ns: List[int] = []
        self.calls_completed = 0
        self.failed = False
        self._fd = None
        self._rc_buf = b""
        self._call_numbers = _host_call_numbers.setdefault(host, itertools.count(1))

    # -- transport helpers -------------------------------------------------

    def _open(self):
        if self.mode == "ud":
            self._fd = self.api.socket(SOCK_DGRAM)
            return
        self.host.cpu.charge(self.config.rc_connect_ns)
        self._fd = self.api.socket(SOCK_STREAM)
        established = yield self.api.connect_future(self._fd, self.server_addr)
        if established is None:
            raise SipCallFailed("RC connect failed")

    def _send(self, msg) -> None:
        self.host.cpu.charge(self.config.build_ns)
        data = msg.encode()
        if self.mode == "ud":
            self.api.sendto(self._fd, data, self.server_addr)
        else:
            self.api.send(self._fd, data)

    def _recv_response(self, timeout_ns: int = 2000 * MS):
        """Process-style: yields until one SIP message arrives (parsed)."""
        if self.mode == "ud":
            got = yield self.api.recvfrom_future(self._fd, 8192, timeout_ns=timeout_ns)
            if got is None:
                raise SipCallFailed("UD response timeout")
            data, _src = got
        else:
            while True:
                msg_bytes, rest = _split_sip_stream(self._rc_buf)
                if msg_bytes is not None:
                    self._rc_buf = rest
                    data = msg_bytes
                    break
                chunk = yield self.api.recv_future(self._fd, 8192, timeout_ns=timeout_ns)
                if not chunk:
                    raise SipCallFailed("RC stream closed")
                self._rc_buf += chunk
        self.host.cpu.charge(self.config.parse_ns)
        return messages.parse(bytes(data))

    # -- call flows --------------------------------------------------------------

    def run_call(self, hold_time_ns: int = 0, do_register: bool = False):
        """One SipStone basic call; appends the INVITE->180 response time."""
        return self.sim.process(self._call(hold_time_ns, do_register),
                                name=f"sip-call-{self.user}")

    def _call(self, hold_time_ns: int, do_register: bool):
        try:
            # The measured window starts at call initiation: for RC that
            # includes connection establishment (TCP handshake + MPA
            # negotiation + per-connection setup) — "attributed to the
            # TCP overhead incurred" (§VI.B.2).
            t0 = self.sim.now
            yield from self._open()
            call_id = f"call-{next(self._call_numbers)}@client.example.invalid"
            cseq = 1
            if do_register:
                self._send(messages.build_request(
                    "REGISTER", call_id, cseq, from_user=self.user))
                resp = yield from self._recv_response()
                if resp.status != 200:
                    raise SipCallFailed(f"REGISTER got {resp.status}")
                cseq += 1
            self._send(messages.build_request(
                "INVITE", call_id, cseq, from_user=self.user))
            resp = yield from self._recv_response()
            self.response_times_ns.append(self.sim.now - t0)
            # Collect until 200 OK.
            while resp.status != 200:
                resp = yield from self._recv_response()
            self._send(messages.build_request("ACK", call_id, cseq,
                                              from_user=self.user))
            if hold_time_ns:
                yield hold_time_ns
            cseq += 1
            self._send(messages.build_request("BYE", call_id, cseq,
                                              from_user=self.user))
            resp = yield from self._recv_response()
            while resp.status != 200:
                resp = yield from self._recv_response()
            self.calls_completed += 1
        except SipCallFailed:
            self.failed = True
        finally:
            if self._fd is not None:
                self.api.close(self._fd)
                self._fd = None
                self._rc_buf = b""

    def hold_call(self, established_event, release_event):
        """Place a call and hold it until ``release_event`` resolves —
        used by the Fig. 11 concurrent-call memory study.  Signals
        ``established_event`` (a counter dict) when the call is up."""
        return self.sim.process(
            self._hold(established_event, release_event),
            name=f"sip-hold-{self.user}",
        )

    def _hold(self, established, release_event):
        try:
            yield from self._open()
            call_id = f"call-{next(self._call_numbers)}@client.example.invalid"
            # RFC 3261 timer-A style INVITE retransmission: unreliable
            # transports retransmit the request until a response arrives.
            invite = messages.build_request("INVITE", call_id, 1,
                                            from_user=self.user)
            resp = None
            for _attempt in range(7):
                self._send(invite)
                try:
                    resp = yield from self._recv_response(timeout_ns=500 * MS)
                    break
                except SipCallFailed:
                    continue
            if resp is None:
                raise SipCallFailed("INVITE retransmissions exhausted")
            while resp.status != 200:
                resp = yield from self._recv_response(timeout_ns=30_000 * MS)
            self._send(messages.build_request("ACK", call_id, 1,
                                              from_user=self.user))
            established["count"] += 1
            if established["count"] >= established.get("target", 0):
                fut = established.get("future")
                if fut is not None and not fut.done:
                    fut.set_result(True)
            yield release_event
            self._send(messages.build_request("BYE", call_id, 2,
                                              from_user=self.user))
            resp = yield from self._recv_response(timeout_ns=30_000 * MS)
            self.calls_completed += 1
        except SipCallFailed:
            self.failed = True
        finally:
            if self._fd is not None:
                self.api.close(self._fd)
                self._fd = None
                self._rc_buf = b""
