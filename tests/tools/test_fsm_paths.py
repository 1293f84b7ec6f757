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
from repro.core.verbs.qp import QP_EVENT_TRANSITIONS, QpError, QueuePair
from repro.transport.sctp import SCTP_EVENT_TRANSITIONS, SctpAssociation, SctpError
from repro.transport.tcp.connection import (
    TCP_EVENT_TRANSITIONS,
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
