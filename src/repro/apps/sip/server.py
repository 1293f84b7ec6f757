"""SIP server (SIPp-uas-like) over UD or RC iWARP sockets.

Implements the server side of the SipStone basic call flow the paper's
§VI.B.2 load test uses: INVITE → 180 Ringing → 200 OK → (ACK) → call
active → BYE → 200 OK, plus REGISTER → 200.

Memory accounting mirrors the paper's measurement ("the sum of the SIPp
application memory usage and the allocated slab buffer space used to
create the required sockets"): each new client costs a kernel socket, an
iWARP QP context and per-call application state, with UD mode paying the
extra call-state bookkeeping the paper blames for the gap between
predicted and measured savings (claims 18–19 of :mod:`repro.bench.claims`).  Objects are freed when the call ends,
so the meter's high-water mark is the concurrent-call footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...memory.accounting import FootprintModel, MemoryMeter
from ...simnet.engine import MS, Simulator
from ...core.socketif.interface import SOCK_DGRAM, SOCK_STREAM
from . import messages
from .messages import SipParseError

Address = Tuple[int, int]


@dataclass
class SipAppConfig:
    """Application-level processing costs (SIPp-era string handling on a
    2 GHz Opteron; CALIBRATED against Fig. 10's absolute times)."""

    parse_ns: int = 60_000
    build_ns: int = 55_000
    #: Server-side cost of accepting a SIP-over-TCP connection (thread
    #: dispatch, per-connection transaction state) — part of "the TCP
    #: overhead incurred" that Fig. 10 attributes the UD win to.
    rc_accept_ns: int = 150_000
    #: Client-side cost of opening the TCP connection (socket setup,
    #: connect bookkeeping).
    rc_connect_ns: int = 80_000


#: The objects the server holds per client, by transport mode.
_CLIENT_OBJECTS = {
    "ud": ("udp_socket", "ud_qp", "ud_bookkeeping"),
    "rc": ("tcp_socket", "rc_qp"),
}


class SipServer:
    """One SIP user-agent server handling many concurrent calls."""

    def __init__(
        self,
        api,
        host,
        port: int = 5060,
        mode: str = "ud",
        meter: Optional[MemoryMeter] = None,
        config: Optional[SipAppConfig] = None,
    ):
        if mode not in ("ud", "rc"):
            raise ValueError(f"unknown SIP transport mode {mode!r}")
        self.api = api
        self.host = host
        self.sim: Simulator = host.sim
        self.port = port
        self.mode = mode
        self.meter = meter or MemoryMeter(FootprintModel())
        self.config = config or SipAppConfig()
        # Call state: call-id -> phase; client registry: peer -> state.
        self.calls: Dict[str, str] = {}
        self._clients: Dict[object, dict] = {}
        self.requests_handled = 0
        self.parse_errors = 0
        self.active_calls = 0
        self.total_calls = 0
        self._stop = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.mode == "ud":
            self.sim.process(self._serve_ud(), name="sip-server-ud")
        else:
            self.sim.process(self._serve_rc(), name="sip-server-rc")

    def stop(self) -> None:
        self._stop = True

    # -- client lifecycle & memory accounting ------------------------------

    def _client_new(self, key) -> dict:
        state = self._clients.get(key)
        if state is None:
            state = {"calls": set()}
            self._clients[key] = state
            for kind in _CLIENT_OBJECTS[self.mode]:
                self.meter.alloc(kind)
        return state

    def _client_gone(self, key) -> None:
        state = self._clients.pop(key, None)
        if state is None:
            return
        for call_id in state["calls"]:
            if self.calls.pop(call_id, None) is not None:
                self.meter.free("app_call")
                self.active_calls -= 1
        for kind in _CLIENT_OBJECTS[self.mode]:
            self.meter.free(kind)

    # -- transaction core ---------------------------------------------------

    def _handle(self, data: bytes, client_key, send) -> None:
        """Process one request; ``send(bytes)`` returns the response(s)."""
        costs = self.config
        self.host.cpu.charge(costs.parse_ns)
        try:
            msg = messages.parse(bytes(data))
        except SipParseError:
            self.parse_errors += 1
            return
        if not msg.is_request:
            return  # responses (e.g. to our 200) need no action here
        self.requests_handled += 1
        state = self._client_new(client_key)
        call_id = msg.call_id

        def reply(status: int, reason: str) -> None:
            self.host.cpu.charge(costs.build_ns)
            send(messages.build_response(msg, status, reason).encode())

        if msg.method == "INVITE":
            if call_id not in self.calls:
                self.calls[call_id] = "ringing"
                state["calls"].add(call_id)
                self.meter.alloc("app_call")
                self.active_calls += 1
                self.total_calls += 1
            reply(180, "Ringing")
            reply(200, "OK")
        elif msg.method == "ACK":
            if self.calls.get(call_id) == "ringing":
                self.calls[call_id] = "active"
        elif msg.method == "BYE":
            if call_id in self.calls:
                del self.calls[call_id]
                state["calls"].discard(call_id)
                self.meter.free("app_call")
                self.active_calls -= 1
            reply(200, "OK")
            if not state["calls"] and self.mode == "ud":
                # The UD bookkeeping exists precisely to learn this
                # moment: all of the peer's calls ended, close its port.
                self._client_gone(client_key)
        else:  # REGISTER, OPTIONS, CANCEL
            reply(200, "OK")

    # -- UD transport ---------------------------------------------------------

    def _serve_ud(self):
        fd = self.api.socket(SOCK_DGRAM, port=self.port)
        while not self._stop:
            got = yield self.api.recvfrom_future(fd, 4096, timeout_ns=None)
            if got is None:
                continue
            data, src = got
            self._handle(data, src, lambda payload, s=src: self.api.sendto(fd, payload, s))

    # -- RC transport -----------------------------------------------------------

    def _serve_rc(self):
        lfd = self.api.socket(SOCK_STREAM)
        self.api.listen(lfd, self.port)
        while not self._stop:
            cfd = yield self.api.accept_future(lfd)
            self.host.cpu.charge(self.config.rc_accept_ns)
            self.sim.process(self._serve_rc_client(cfd), name="sip-rc-conn")

    def _serve_rc_client(self, cfd):
        buf = b""
        while not self._stop:
            chunk = yield self.api.recv_future(cfd, 8192, timeout_ns=10_000 * MS)
            if not chunk:
                break
            buf += chunk
            while True:
                msg_bytes, rest = _split_sip_stream(buf)
                if msg_bytes is None:
                    break
                buf = rest
                self._handle(msg_bytes, cfd, lambda payload: self.api.send(cfd, payload))
        self._client_gone(cfd)
        self.api.close(cfd)


def _split_sip_stream(buf: bytes):
    """Extract one complete SIP message from a TCP byte stream using
    Content-Length framing.  Returns (message, rest) or (None, buf).

    The body length is read from the last head line that starts with
    ``content-length`` in any case; without one, or when its value does
    not read as an integer, it is 0."""
    sep = buf.find(b"\r\n\r\n")
    if sep < 0:
        return None, buf
    # bytes.lower() folds ASCII only, and no other character lowercases
    # to an ASCII letter of "content-length", so this finds the lines
    # str.lower() would, without decoding the head.
    head = buf[:sep].lower()
    at = head.rfind(b"\r\ncontent-length")
    if at >= 0:
        at += 2
    elif head.startswith(b"content-length"):
        at = 0
    length = 0
    if at >= 0:
        eol = head.find(b"\r\n", at)
        line = buf[at : eol if eol >= 0 else sep].decode(errors="replace")
        try:
            length = int(line.split(":", 1)[1])
        except (ValueError, IndexError):
            length = 0
    end = sep + 4 + length
    if len(buf) < end:
        return None, buf
    return buf[:end], buf[end:]
