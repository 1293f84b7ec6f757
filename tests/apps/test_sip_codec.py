"""The SIP codec's contract, stated over the live code alone.

``messages.parse`` inverts ``SipMessage.encode`` for every message the
builders can produce; each malformed form is a :class:`SipParseError`;
and the RC stream splitter frames messages by the last
``Content-Length`` line of a head, in any case, reading a missing or
unreadable value as 0, wherever the byte stream happens to be cut.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sip import messages
from repro.apps.sip.messages import REQUEST_METHODS, SipMessage, SipParseError
from repro.apps.sip.server import _split_sip_stream

_TOKEN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._!%*+~"
_VALUE = _TOKEN + " <>;=@\"/?:,"

tokens = st.text(alphabet=_TOKEN, min_size=1, max_size=12)
# Header values and reason phrases hold no CR or LF; parse strips the
# whitespace around a value.
values = st.text(alphabet=_VALUE, max_size=30).map(str.strip)
header_sets = st.dictionaries(
    tokens.filter(lambda name: name != "Content-Length"), values, max_size=8
)
bodies = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)

requests = st.builds(
    lambda method, uri, headers, body: SipMessage(
        method=method, uri=uri, headers=headers, body=body
    ),
    st.sampled_from(REQUEST_METHODS), tokens, header_sets, bodies,
)
responses = st.builds(
    lambda status, reason, headers, body: SipMessage(
        status=status, reason=reason, headers=headers, body=body
    ),
    st.integers(100, 699), st.text(alphabet=_VALUE, max_size=20), header_sets, bodies,
)


@settings(max_examples=300)
@given(st.one_of(requests, responses))
def test_parse_inverts_encode(msg):
    parsed = messages.parse(msg.encode())
    assert (parsed.method, parsed.uri, parsed.status, parsed.reason, parsed.body) == (
        msg.method, msg.uri, msg.status, msg.reason, msg.body
    )
    assert list(parsed.headers.items()) == list(msg.headers.items()) + [
        ("Content-Length", str(len(msg.body.encode())))
    ]


@settings(max_examples=100)
@given(st.sampled_from(REQUEST_METHODS), tokens, st.integers(1, 1 << 31))
def test_built_requests_and_their_responses_round_trip(method, call_id, cseq):
    request = messages.build_request(method, call_id, cseq)
    assert messages.parse(request.encode()) == SipMessage(
        method, request.uri, None, "",
        {**request.headers, "Content-Length": str(len(request.body))}, request.body,
    )
    response = messages.build_response(request, 180, "Ringing")
    assert messages.parse(response.encode()).headers == {
        **response.headers, "Content-Length": "0"
    }


@pytest.mark.parametrize("data, error", [
    (b"", "empty message"),
    (b"\r\nVia: x\r\n\r\n", "empty message"),
    (b"INVITE sip:bob SIP/2.0\r\nVia x\r\n\r\n", "bad header line 'Via x'"),
    (b"SIP/2.0 2x0 OK\r\n\r\n", "bad status code"),
    (b"SIP/2.0 200\r\n\r\n", "bad status line"),
    (b"INVITE sip:bob\r\n\r\n", "bad request line"),
    (b"INVITE sip:bob SIP/3.0\r\n\r\n", "bad request line"),
    (b"TEACH sip:bob SIP/2.0\r\n\r\n", "unknown method 'TEACH'"),
    (b"INVITE sip:b\xffb SIP/2.0\r\n\r\n", "not text"),
])
def test_each_malformed_form_raises(data, error):
    with pytest.raises(SipParseError, match=error):
        messages.parse(data)


def _message(head_lines, body=b""):
    return b"\r\n".join([b"INVITE sip:bob SIP/2.0", *head_lines]) + b"\r\n\r\n" + body


@pytest.mark.parametrize("line", [
    b"Content-Length: 5", b"content-length: 5", b"CONTENT-LENGTH:5", b"cOnTeNt-LeNgTh :  5",
])
def test_content_length_is_matched_in_any_case(line):
    msg = _message([b"Via: x", line], b"hello")
    assert _split_sip_stream(msg + b"rest") == (msg, b"rest")


def test_the_last_content_length_line_wins():
    msg = _message([b"Content-Length: 99", b"Via: x", b"content-length: 3"], b"abc")
    assert _split_sip_stream(msg + b"def") == (msg, b"def")


@pytest.mark.parametrize("lines", [
    [b"Via: x"],
    [b"Content-Length: five"],
    [b"Content-Length"],
    [b"Content-Length: 7", b"CONTENT-LENGTH: 7x"],
])
def test_a_missing_or_non_numeric_length_reads_as_zero(lines):
    msg = _message(lines)
    assert _split_sip_stream(msg + b"tail") == (msg, b"tail")


def test_an_incomplete_head_or_body_waits_for_more():
    msg = _message([b"Content-Length: 4"], b"body")
    assert _split_sip_stream(msg[:-1]) == (None, msg[:-1])
    assert _split_sip_stream(msg[:10]) == (None, msg[:10])


def _reassemble(chunks):
    """Feed ``chunks`` through the splitter as a receiver does."""
    out, buf = [], b""
    for chunk in chunks:
        buf += chunk
        while True:
            msg, buf = _split_sip_stream(buf)
            if msg is None:
                break
            out.append(msg)
    return out, buf


def test_a_message_cut_at_every_byte_boundary_reassembles():
    msg = messages.build_request("INVITE", "call-1@client.example.invalid", 1).encode()
    for cut in range(len(msg) + 1):
        assert _reassemble([msg[:cut], msg[cut:]]) == ([msg], b"")


def test_two_messages_in_one_buffer_split_in_order():
    invite = messages.build_request("INVITE", "call-1", 1).encode()
    ok = messages.build_response(messages.parse(invite), 200, "OK").encode()
    assert _reassemble([invite + ok + invite[:7]]) == ([invite, ok], invite[:7])


def test_content_length_counts_the_bodys_utf8_bytes():
    # Four characters, five bytes: a count in characters would leave the
    # last byte of the body at the front of the next message.
    note = SipMessage(method="OPTIONS", uri="sip:bob", body="café").encode()
    bye = messages.build_request("BYE", "call-1", 2).encode()
    assert b"Content-Length: 5\r\n" in note
    assert _reassemble([note + bye]) == ([note, bye], b"")
