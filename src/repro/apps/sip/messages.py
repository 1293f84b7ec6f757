"""Minimal SIP message builder/parser.

Real textual SIP messages (request line / status line + the headers a
transaction layer needs), sized realistically (~350-600 bytes), so the
workload exercises the transports with genuine SIP-shaped traffic and
the parser is genuinely exercised by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

SIP_VERSION = "SIP/2.0"

REQUEST_METHODS = ("REGISTER", "INVITE", "ACK", "BYE", "OPTIONS", "CANCEL")


class SipParseError(Exception):
    """Structurally invalid SIP message."""


@dataclass
class SipMessage:
    """Either a request (method set) or a response (status set)."""

    method: Optional[str] = None
    uri: str = ""
    status: Optional[int] = None
    reason: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    body: str = ""

    @property
    def is_request(self) -> bool:
        return self.method is not None

    @property
    def call_id(self) -> str:
        return self.headers.get("Call-ID", "")

    @property
    def cseq(self) -> str:
        return self.headers.get("CSeq", "")

    def encode(self) -> bytes:
        if self.method is not None:
            start = f"{self.method} {self.uri} {SIP_VERSION}\r\n"
        else:
            start = f"{SIP_VERSION} {self.status} {self.reason}\r\n"
        fields = "".join([f"{k}: {v}\r\n" for k, v in self.headers.items()])
        body = self.body
        return (start + fields + f"Content-Length: {len(body)}\r\n\r\n" + body).encode()


#: The SDP offer an INVITE carries when it has no body of its own, as
#: SIPp's default scenario does.
_SDP_OFFER = (
    "v=0\r\no=user 53655765 2353687637 IN IP4 127.0.0.1\r\n"
    "s=-\r\nc=IN IP4 127.0.0.1\r\nt=0 0\r\n"
    "m=audio 6000 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
)


def _standard_headers(call_id: str, cseq: int, method: str, from_user: str,
                      to_user: str) -> Dict[str, str]:
    # The tag's digit count, and so every message's size, follows the
    # process's hash salt; a stable tag moves the pinned SIP byte counts,
    # so it waits for the benchmark change (ROADMAP item 1).
    tag = abs(hash(from_user)) % 99999  # iwarplint: disable=IW404
    return {
        "Via": f"SIP/2.0/UDP client.example.invalid;branch=z9hG4bK{call_id}.{cseq}",
        "Max-Forwards": "70",
        "From": f"<sip:{from_user}@example.invalid>;tag=t{tag}",
        "To": f"<sip:{to_user}@example.invalid>",
        "Call-ID": call_id,
        "CSeq": f"{cseq} {method}",
        "Contact": f"<sip:{from_user}@client.example.invalid:5060>",
        "User-Agent": "repro-sipp/1.0",
    }


def build_request(
    method: str,
    call_id: str,
    cseq: int,
    from_user: str = "alice",
    to_user: str = "bob",
    body: str = "",
) -> SipMessage:
    if method not in REQUEST_METHODS:
        raise ValueError(f"unsupported SIP method {method!r}")
    headers = _standard_headers(call_id, cseq, method, from_user, to_user)
    if method == "INVITE" and not body:
        body = _SDP_OFFER
        headers["Content-Type"] = "application/sdp"
    return SipMessage(method, f"sip:{to_user}@example.invalid", None, "", headers, body)


def build_response(request: SipMessage, status: int, reason: str) -> SipMessage:
    """Response echoing the transaction-identifying headers (RFC 3261)."""
    echoed = request.headers
    headers = {
        k: echoed[k] for k in ("Via", "From", "To", "Call-ID", "CSeq") if k in echoed
    }
    headers["Server"] = "repro-sip-server/1.0"
    headers["Contact"] = "<sip:server.example.invalid:5060>"
    return SipMessage(status=status, reason=reason, headers=headers)


def parse(data: bytes) -> SipMessage:
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise SipParseError(f"not text: {exc}") from None
    head, _, body = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    start = lines[0]
    if not start:
        raise SipParseError("empty message")
    method = status = None
    uri = reason = ""
    if start.startswith(SIP_VERSION):
        parts = start.split(" ", 2)
        if len(parts) < 3:
            raise SipParseError(f"bad status line {start!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise SipParseError(f"bad status code in {start!r}") from None
        reason = parts[2]
    else:
        parts = start.split(" ")
        if len(parts) != 3 or parts[2] != SIP_VERSION:
            raise SipParseError(f"bad request line {start!r}")
        method, uri = parts[0], parts[1]
        if method not in REQUEST_METHODS:
            raise SipParseError(f"unknown method {method!r}")
    # The head holds no blank line, except a last one when the text
    # ends in a lone CRLF without the blank line that ends a head.
    if not lines[-1]:
        lines.pop()
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise SipParseError(f"bad header line {line!r}")
        headers[name.strip()] = value.strip()
    return SipMessage(method, uri, status, reason, headers, body)
