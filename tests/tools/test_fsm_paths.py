"""FSM conformance via checker-generated paths.

:func:`iwarpcheck.explore.event_paths_covering_all_edges` emits one
event path per declared arc; replaying every path through the live
``_set_state`` helpers proves the runtime validators accept exactly the
declared tables — every declared transition is taken (which is what
drives the runtime coverage sanitizer to 100% without waivers), and
every undeclared move raises the machine's own error type.

This is the SCTP and MPA tables' first direct table-level coverage; the
QP and TCP machines ride along so the four machines stay symmetric.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from iwarpcheck.explore import event_paths_covering_all_edges  # noqa: E402
from iwarpcheck.model import MACHINE_NAMES, machines_by_name  # noqa: E402

from repro.core.fsm import (  # noqa: E402
    add_transition_observer,
    pair_table,
    remove_transition_observer,
)
from repro.core.mpa.connection import (  # noqa: E402
    MPA_EVENT_TRANSITIONS,
    MpaConnection,
    MpaError,
)
from repro.core.verbs.qp import QpError, QueuePair  # noqa: E402
from repro.transport.sctp import SctpAssociation, SctpError  # noqa: E402
from repro.transport.tcp.connection import TcpConnection, TcpError  # noqa: E402

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

MACHINES = machines_by_name()


def make_skeleton(name: str, state: str):
    """A bare instance with just enough attributes for ``_set_state``:
    the state itself plus whatever the error-detail f-string reads."""
    cls, _error, attrs = SKELETONS[name]
    obj = object.__new__(cls)
    obj.state = state
    for attr, value in attrs.items():
        setattr(obj, attr, value)
    return obj


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_covering_paths_replay_through_set_state(name):
    machine = MACHINES[name]
    paths = event_paths_covering_all_edges(machine)
    assert paths, f"{name} has no covering paths"
    hops = set()
    for path in paths:
        obj = make_skeleton(name, machine.initial)
        for src, _event, dst in path:
            assert obj.state == src
            obj._set_state(dst)
            assert obj.state == dst
            hops.add((src, dst))
    # Together the paths take every declared (from, to) pair — this is
    # exactly what drives the runtime sanitizer to 100% coverage.
    assert hops == set(machine.declared_pairs())


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_undeclared_moves_raise(name):
    machine = MACHINES[name]
    _cls, error, _attrs = SKELETONS[name]
    for src in sorted(machine.states):
        allowed = machine.table.get(src, frozenset())
        for dst in sorted(machine.states - allowed - {src}):
            obj = make_skeleton(name, src)
            with pytest.raises(error):
                obj._set_state(dst)
            assert obj.state == src, "failed transition must not move the state"


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_same_state_set_is_silent_noop(name):
    machine = MACHINES[name]
    observed = []

    def observer(machine_name, src, dst, obj):
        observed.append((machine_name, src, dst))

    add_transition_observer(observer)
    try:
        for state in sorted(machine.states):
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
