"""Property-based tests over full protocol stacks.

Heavier than the unit-level properties: each example drives a real
simulated exchange and checks an end-to-end invariant.
"""

from hypothesis import given, settings, strategies as st

from repro.core.mpa.crc import CrcError, append_crc, split_and_verify
from repro.memory.validity import ValidityMap
from repro.models.costs import default_cost_model, zero_cost_model
from repro.simnet.engine import SEC, Simulator
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.transport.ip import IpStack
from repro.transport.rudp import RudpSocket
from repro.transport.sctp import SctpStack
from repro.transport.udp import UdpStack


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=400), min_size=1, max_size=25),
    st.floats(0.0, 0.2),
    st.integers(0, 1000),
)
def test_rudp_exactly_once_in_order_under_any_loss(messages, loss_rate, seed):
    """RUDP delivers every message exactly once, in order, for any loss
    rate it can survive within its retry budget."""
    tb = build_testbed(costs=zero_cost_model())
    tb.set_egress_loss(0, BernoulliLoss(loss_rate, seed=seed))
    socks = []
    for h in tb.hosts:
        ip = IpStack(h)
        udp = UdpStack(h, ip)
        socks.append(RudpSocket(udp.socket(6000), rto_ns=1_000_000,
                                max_retries=200))
    got = []
    socks[1].on_message = lambda d, src: got.append(d)
    for m in messages:
        socks[0].sendto(m, (1, 6000))
    tb.sim.run(until=120 * SEC)
    assert got == messages


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=1000), min_size=1, max_size=30),
    st.floats(0.0, 0.08),
    st.integers(0, 1000),
)
def test_sctp_boundaries_and_order_under_any_loss(messages, loss_rate, seed):
    """SCTP preserves message boundaries and order under loss."""
    tb = build_testbed(costs=zero_cost_model())
    tb.set_egress_loss(0, BernoulliLoss(loss_rate, seed=seed))
    stacks = []
    for h in tb.hosts:
        ip = IpStack(h)
        stacks.append(SctpStack(h, ip))
    listener = stacks[1].listen(3000)
    got = []
    listener.on_accept = lambda assoc: setattr(assoc, "on_message", got.append)
    cli = stacks[0].connect((1, 3000))
    for m in messages:
        cli.send_message(m)
    tb.sim.run(until=240 * SEC)
    assert got == messages


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=2000))
def test_crc_roundtrip_property(data):
    assert split_and_verify(append_crc(data)) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=500), st.integers(0, 10_000))
def test_crc_detects_any_single_bit_flip(data, position_seed):
    framed = bytearray(append_crc(data))
    index = position_seed % len(framed)
    bit = (position_seed // len(framed)) % 8
    framed[index] ^= 1 << bit
    try:
        split_and_verify(bytes(framed))
        raised = False
    except CrcError:
        raised = True
    assert raised, "single-bit corruption slipped past the CRC"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 490), st.integers(1, 200)), max_size=20))
def test_validity_union_is_commutative(chunks):
    """Adding chunks in any order yields the same map."""
    bounded = [(o, min(l, 500 - o)) for o, l in chunks if o < 500]
    a = ValidityMap(500)
    b = ValidityMap(500)
    for off, length in bounded:
        a.add(off, length)
    for off, length in reversed(bounded):
        b.add(off, length)
    assert a == b


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10_000_000), st.integers(0, 1_000_000))
def test_cost_model_helpers_monotone(nbytes, smaller):
    m = default_cost_model()
    smaller = min(smaller, nbytes)
    assert m.crc_ns(nbytes) >= m.crc_ns(smaller) >= m.crc_fixed_ns
    assert m.copy_ns(nbytes) >= m.copy_ns(smaller) >= 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 3)), min_size=1,
             max_size=60),
)
def test_engine_event_order_is_total(schedule):
    """Events fire in (time, insertion) order no matter how they were
    scheduled."""
    sim = Simulator()
    fired = []
    expected = []
    for i, (delay, _jitter) in enumerate(schedule):
        sim.call_at(delay, lambda i=i, d=delay: fired.append((d, i)))
        expected.append((delay, i))
    sim.run()
    assert fired == sorted(expected)
