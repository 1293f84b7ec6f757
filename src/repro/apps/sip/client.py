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

#: RFC 3261's timers: T1 is the first resend interval, T2 caps a
#: non-INVITE request's, and a transaction gives up after 64·T1
#: (Timers B and F).
T1 = 500 * MS
T2 = 4_000 * MS
TIMEOUT = 64 * T1

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

    def _send(self, data: bytes) -> None:
        if self.mode == "ud":
            self.api.sendto(self._fd, data, self.server_addr)
        else:
            self.api.send(self._fd, data)

    def _request(self, method: str, call_id: str, cseq: int) -> bytes:
        """Build and send one request; returns its bytes for resending."""
        self.host.cpu.charge(self.config.build_ns)
        data = messages.build_request(method, call_id, cseq, from_user=self.user).encode()
        self._send(data)
        return data

    def _recv_response(self, timeout_ns: int):
        """Process-style: yields until one SIP message arrives (parsed).
        Over UD it returns None if ``timeout_ns`` passes first; over RC,
        which never resends, a timeout or a dead stream fails the call."""
        if self.mode == "ud":
            got = yield self.api.recvfrom_future(self._fd, 8192, timeout_ns=timeout_ns)
            if got is None:
                return None
            data = got[0]
        else:
            while True:
                data, rest = _split_sip_stream(self._rc_buf)
                if data is not None:
                    self._rc_buf = rest
                    break
                chunk = yield self.api.recv_future(self._fd, 8192, timeout_ns=timeout_ns)
                if not chunk:
                    raise SipCallFailed("RC stream closed or timed out")
                self._rc_buf += chunk
        self.host.cpu.charge(self.config.parse_ns)
        return messages.parse(bytes(data))

    def _transact(self, method: str, call_id: str, cseq: int,
                  t0: Optional[int] = None):
        """One client transaction (RFC 3261 §17.1): send the request and
        wait for its final response, skipping any response whose CSeq is
        another request's.  Over UD the request is resent T1 after the
        first send, then at doubling intervals (capped at T2 unless it
        is an INVITE), until the final response arrives.  RFC 3261 stops
        an INVITE's resends at a provisional response because the server
        resends its 200 OK until the ACK (§13.3.1.4); this server sends
        it once, so a resent INVITE is what recovers a lost 200.  Over
        RC the transport retransmits, so the transaction only waits.  It
        fails ``TIMEOUT`` after the first send (Timers B and F).  If
        ``t0`` is given, the time from ``t0`` to the first response is
        appended to ``response_times_ns``."""
        data = self._request(method, call_id, cseq)
        sim = self.sim
        deadline = sim.now + TIMEOUT
        cap = TIMEOUT if method == "INVITE" else T2
        interval = T1
        resend_at = sim.now + T1 if self.mode == "ud" else deadline
        tag = f"{cseq} {method}"
        while True:
            resp = yield from self._recv_response(resend_at - sim.now)
            if resp is None:
                if sim.now >= deadline:
                    raise SipCallFailed(f"{method} timed out")
                self._send(data)
                interval = min(2 * interval, cap)
                resend_at = min(sim.now + interval, deadline)
            elif resp.cseq == tag:
                if t0 is not None:
                    self.response_times_ns.append(sim.now - t0)
                    t0 = None
                if resp.status >= 200:
                    if resp.status != 200:
                        raise SipCallFailed(f"{method} got {resp.status}")
                    return

    # -- the call flow -----------------------------------------------------------

    def run_call(self, hold_time_ns: int = 0, do_register: bool = False):
        """One SipStone basic call; appends the INVITE->first-response time."""
        return self.sim.process(self._call(hold_time_ns, do_register),
                                name=f"sip-call-{self.user}")

    def hold_call(self, established_event, release_event):
        """Place a call and hold it until ``release_event`` resolves —
        used by the Fig. 11 concurrent-call memory study.  Counts the
        call up in ``established_event`` (a dict: ``count``, ``target``
        and a ``future`` resolved when ``count`` reaches ``target``)."""
        return self.sim.process(self._call(release_event, False, established_event),
                                name=f"sip-hold-{self.user}")

    def _call(self, hold, do_register: bool, established: Optional[dict] = None):
        """The one call flow.  ``hold`` is what the call waits on between
        ACK and BYE: a time in ns (0: none) or a future."""
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
                yield from self._transact("REGISTER", call_id, cseq)
                cseq += 1
            yield from self._transact("INVITE", call_id, cseq, t0)
            self._request("ACK", call_id, cseq)
            if established is not None:
                established["count"] += 1
                if established["count"] == established["target"]:
                    established["future"].set_result(True)
            if hold:
                yield hold
            yield from self._transact("BYE", call_id, cseq + 1)
            self.calls_completed += 1
        except SipCallFailed:
            self.failed = True
        finally:
            if self._fd is not None:
                self.api.close(self._fd)
                self._fd = None
                self._rc_buf = b""
