"""FSM conformance over the four declared event tables.

Each machine (QP, TCP, MPA, SCTP) is one literal ``(events, initial,
terminals)`` row below, read from the module that declares it.  Two
static properties hold for every table: every declared state is
reachable from the initial one, and every reachable state can still
reach a terminal.  The live ``_set_state`` helpers accept exactly the
declared ``(from, to)`` pairs: one shortest path per event arc,
replayed through them, takes every declared pair and the transition
observer sees each hop; every undeclared move raises the machine's own
error type; a same-state set is a silent no-op.

The replay runs on bare objects, so it shows only that the helpers
accept the tables. The live-stack tests at the end take, on a device
QP and on a connected TCP pair, the arcs no other test or explorer run
takes: the QP recycle and close arcs out of INIT, RTR, RTS and SQD, and
TCP's reset in CLOSING. They also show how a FIN that acknowledges
ours passes through FIN_WAIT_2, which is why TCP's table declares no
FIN_WAIT_1 -> TIME_WAIT arc.
"""

from collections import deque

import pytest

from repro.core.fsm import (
    add_transition_observer,
    pair_table,
    remove_transition_observer,
)
from repro.core.mpa.connection import (
    MPA_EVENT_TRANSITIONS,
    MpaConnection,
    MpaError,
)
from repro.bench.harness import VerbsEndpointPair
from repro.core.verbs.qp import (
    ERROR, INIT, QP_EVENT_TRANSITIONS, RESET, RTR, RTS, SQD, QpError, QueuePair,
)
from repro.core.verbs.wr import WC_FLUSHED, WC_SUCCESS, RecvWR, Sge
from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS, SEC
from repro.simnet.loss import ExplicitLoss
from repro.simnet.topology import build_testbed
from repro.transport.sctp import SCTP_EVENT_TRANSITIONS, SctpAssociation, SctpError
from repro.transport.stacks import install_stacks
from repro.transport.tcp.connection import (
    CLOSED,
    CLOSING,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    TCP_EVENT_TRANSITIONS,
    TIME_WAIT,
    TcpConnection,
    TcpError,
)

#: machine name -> (event table, initial state, terminal states).
MACHINES = {
    "QP": (QP_EVENT_TRANSITIONS, "RESET", {"ERROR"}),
    "TCP": (TCP_EVENT_TRANSITIONS, "CLOSED", {"CLOSED"}),
    "MPA": (MPA_EVENT_TRANSITIONS, "NEGOTIATING", {"FAILED"}),
    "SCTP": (SCTP_EVENT_TRANSITIONS, "CLOSED", {"CLOSED"}),
}

#: machine name -> (class, error type, attrs the error detail reads).
SKELETONS = {
    "QP": (QueuePair, QpError, {"qp_num": 7}),
    "TCP": (TcpConnection, TcpError, {"local_port": 4000, "remote": ("peer", 4001)}),
    "MPA": (MpaConnection, MpaError, {}),
    "SCTP": (
        SctpAssociation,
        SctpError,
        {"local_port": 5000, "remote": ("peer", 5001)},
    ),
}


def shortest_paths(events, start):
    """BFS over ``events``: every state reachable from ``start`` ->
    one shortest list of ``(from, to)`` hops to it."""
    paths = {start: []}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for (src, _event), dst in events.items():
            if src == state and dst not in paths:
                paths[dst] = paths[state] + [(src, dst)]
                queue.append(dst)
    return paths


def states(events, initial):
    """Every state the events name, plus the initial state."""
    return set(pair_table(events)) | {initial}


def unreachable(events, initial):
    return states(events, initial) - set(shortest_paths(events, initial))


def stuck(events, initial, terminals):
    """Reachable states with no path to any terminal."""
    return {
        state for state in shortest_paths(events, initial)
        if not set(shortest_paths(events, state)) & terminals
    }


def make_skeleton(name: str, state: str):
    """A bare instance with just enough attributes for ``_set_state``:
    the state itself plus whatever the error-detail f-string reads."""
    cls, _error, attrs = SKELETONS[name]
    obj = object.__new__(cls)
    obj.state = state
    for attr, value in attrs.items():
        setattr(obj, attr, value)
    return obj


def test_ic104_unreachable_state():
    events = {("A", "go"): "B", ("B", "fin"): "C", ("D", "leak"): "C"}
    assert unreachable(events, "A") == {"D"}
    assert stuck(events, "A", {"C"}) == set()


def test_ic105_no_path_to_terminal():
    events = {("A", "go"): "B", ("A", "alt"): "C"}
    assert unreachable(events, "A") == set()
    assert stuck(events, "A", {"C"}) == {"B"}


def test_real_machines_are_clean():
    problems = {}
    for name, (events, initial, terminals) in MACHINES.items():
        for kind, found in (
            ("unreachable", unreachable(events, initial)),
            ("no path to a terminal", stuck(events, initial, terminals)),
        ):
            if found:
                problems[(name, kind)] = sorted(found)
    assert problems == {}


@pytest.mark.parametrize("name", MACHINES)
def test_covering_paths_replay_through_set_state(name):
    events, initial, _terminals = MACHINES[name]
    prefix = shortest_paths(events, initial)
    observed = []

    def observer(machine_name, src, dst, obj):
        observed.append((machine_name, src, dst))

    hops = []
    add_transition_observer(observer)
    try:
        for (src, _event), dst in events.items():
            obj = make_skeleton(name, initial)
            for hop_src, hop_dst in prefix[src] + [(src, dst)]:
                assert obj.state == hop_src
                obj._set_state(hop_dst)
                assert obj.state == hop_dst
                hops.append((name, hop_src, hop_dst))
    finally:
        remove_transition_observer(observer)
    assert observed == hops
    assert {(src, dst) for _name, src, dst in hops} == {
        (src, dst) for src, targets in pair_table(events).items() for dst in targets
    }
    # A removed observer sees nothing more.
    src, dst = hops[0][1:]
    make_skeleton(name, src)._set_state(dst)
    assert len(observed) == len(hops)


@pytest.mark.parametrize("name", MACHINES)
def test_undeclared_moves_raise(name):
    events, initial, _terminals = MACHINES[name]
    table = pair_table(events)
    _cls, error, _attrs = SKELETONS[name]
    every = states(events, initial)
    for src in sorted(every):
        for dst in sorted(every - table.get(src, frozenset()) - {src}):
            obj = make_skeleton(name, src)
            with pytest.raises(error):
                obj._set_state(dst)
            assert obj.state == src, "failed transition must not move the state"


@pytest.mark.parametrize("name, where", [
    ("QP", " on QP 7"),
    ("TCP", " (4000<->('peer', 4001))"),
    ("SCTP", " (5000<->('peer', 5001))"),
])
def test_undeclared_move_message_names_the_instance(name, where):
    events, initial, _terminals = MACHINES[name]
    table = pair_table(events)
    _cls, error, _attrs = SKELETONS[name]
    src = initial
    dst = sorted(states(events, initial) - table[src] - {src})[0]
    with pytest.raises(error) as excinfo:
        make_skeleton(name, src)._set_state(dst)
    assert str(excinfo.value) == (
        f"illegal {name} state transition {src} -> {dst}{where}"
    )


@pytest.mark.parametrize("name", MACHINES)
def test_same_state_set_is_silent_noop(name):
    events, initial, _terminals = MACHINES[name]
    observed = []

    def observer(machine_name, src, dst, obj):
        observed.append((machine_name, src, dst))

    add_transition_observer(observer)
    try:
        for state in sorted(states(events, initial)):
            obj = make_skeleton(name, state)
            obj._set_state(state)
            assert obj.state == state
    finally:
        remove_transition_observer(observer)
    assert observed == [], "a same-state set must not reach the observers"


def test_pair_table_keeps_sinks_and_rejects_self_loops():
    # FAILED has no outgoing arc; it still gets a key, with no pairs.
    assert pair_table(MPA_EVENT_TRANSITIONS) == {
        "NEGOTIATING": frozenset({"OPERATIONAL", "FAILED"}),
        "OPERATIONAL": frozenset({"FAILED"}),
        "FAILED": frozenset(),
    }
    with pytest.raises(ValueError, match="self-loop"):
        pair_table({("A", "go"): "B", ("B", "stay"): "B"})


# ----------------------------------------------------------------------
# Arcs taken on the live stack
# ----------------------------------------------------------------------

class _Arcs:
    """Records the ``(from, to)`` moves of one live object."""

    def __init__(self, obj):
        self.obj = obj
        self.taken = []

    def __call__(self, machine_name, src, dst, obj):
        if obj is self.obj:
            self.taken.append((src, dst))

    def __enter__(self):
        add_transition_observer(self)
        return self

    def __exit__(self, *exc):
        remove_transition_observer(self)


#: ``modify_qp`` targets from RTS that walk a live QP through the six
#: recycle and close arcs the data path never takes, and back to RTS.
QP_LADDER = (
    SQD, RESET,              # RTS -> SQD -> RESET
    INIT, RESET,             # INIT -> RESET
    INIT, RTR, RESET,        # RTR -> RESET
    INIT, RTR, RTS, RESET,   # RTS -> RESET
    INIT, ERROR, RESET,      # INIT -> ERROR (the error path), recycled
    INIT, RTR, ERROR, RESET,  # RTR -> ERROR, recycled
    INIT, RTR, RTS,
)


def test_live_qp_takes_the_recycle_and_close_arcs():
    """A UD QP walked down the verbs ladder and back by ``modify_qp``:
    every step takes its declared arc, an error out of INIT or RTR
    flushes the receive posted there, and the recycled QP carries a
    datagram again."""
    pair = VerbsEndpointPair.build("ud_sendrecv", costs=zero_cost_model())
    qp, cq = pair.qps[0], pair.cqs[0]
    sim = pair.testbed.sim
    mr = pair.recv_mrs[0]
    with _Arcs(qp) as arcs:
        for target in QP_LADDER:
            if target == ERROR:
                qp.post_recv(RecvWR(sges=[Sge(mr, 0, 64)]))
            qp.modify_qp(target)
            assert qp.state == target
            if qp.state != RTS:
                with pytest.raises(QpError):
                    pair._post_message(0, 64)
    states = (RTS,) + QP_LADDER
    assert arcs.taken == list(zip(states, states[1:]))
    for arc in [(INIT, ERROR), (INIT, RESET), (RTR, ERROR), (RTR, RESET),
                (RTS, RESET), (SQD, RESET)]:
        assert arc in arcs.taken
    assert [wc.status for wc in cq.poll(8)] == [WC_FLUSHED, WC_FLUSHED]
    pair._prepost_recvs(1, 1, 64)
    pair._post_message(0, 64)
    sim.run(until=sim.now + 10 * MS)
    wcs = pair.cqs[1].poll(8)
    assert [(wc.status, wc.byte_len, wc.src) for wc in wcs] == [
        (WC_SUCCESS, 64, qp.address)
    ]


def _tcp_pair(loss_on_server=None):
    tb = build_testbed(2, costs=zero_cost_model())
    nets = install_stacks(tb)
    if loss_on_server is not None:
        tb.set_egress_loss(1, loss_on_server)
    listener = nets[1].tcp.listen(80)
    accepted = listener.accept_future()
    cli = nets[0].tcp.connect((1, 80))
    tb.sim.run_until(cli.established, limit=5 * SEC)
    tb.sim.run_until(accepted, limit=5 * SEC)
    return tb.sim, cli.conn, accepted.value.conn


def test_live_tcp_reset_in_closing():
    """Both ends close at once, so each FIN crosses the other's and
    both reach CLOSING; an abort there takes CLOSING -> CLOSED, and the
    peer's RST ends the other side too."""
    sim, cli, srv = _tcp_pair()
    entered = sim.future()

    def on_move(machine_name, src, dst, obj):
        if obj is cli and dst == CLOSING and not entered.done:
            entered.set_result(None)

    add_transition_observer(on_move)
    try:
        with _Arcs(cli) as arcs:
            cli.close()
            srv.close()
            sim.run_until(entered, limit=1 * SEC)
            assert cli.state == CLOSING
            cli.abort()
    finally:
        remove_transition_observer(on_move)
    assert arcs.taken == [(ESTABLISHED, FIN_WAIT_1), (FIN_WAIT_1, CLOSING),
                          (CLOSING, CLOSED)]
    sim.run(until=sim.now + 1 * SEC)
    assert srv.state == CLOSED


def test_live_tcp_fin_that_acks_ours_passes_fin_wait_2():
    """The server's pure ACK of the client's FIN is lost, so its FIN
    arrives acknowledging the client's: ``on_segment`` processes the ACK
    first (FIN_WAIT_1 -> FIN_WAIT_2) and then the FIN (-> TIME_WAIT), in
    one event. No segment moves FIN_WAIT_1 straight to TIME_WAIT."""
    # Server egress: 1 = SYN-ACK, 2 = the ACK of the client's FIN.
    sim, cli, srv = _tcp_pair(loss_on_server=ExplicitLoss([2]))
    with _Arcs(cli) as arcs:
        cli.close()
        sim.run(until=sim.now + 1 * MS)
        assert cli.state == FIN_WAIT_1
        srv.close()
        sim.run(until=sim.now + 1 * MS)
    assert arcs.taken == [(ESTABLISHED, FIN_WAIT_1), (FIN_WAIT_1, FIN_WAIT_2),
                          (FIN_WAIT_2, TIME_WAIT)]
    assert TIME_WAIT not in pair_table(TCP_EVENT_TRANSITIONS)[FIN_WAIT_1]
