"""Shared FSM transition core: one validator, one observation point.

The four guarded state machines in the stack (QP ladder, TCP
connection, MPA negotiation, SCTP association) all follow the same
discipline: one module-level event table ``(state, event) -> state``,
the ``(from, to)`` pair table :func:`pair_table` derives from it, a
single ``_set_state`` mutator, same-state writes as no-ops (that is what
makes teardown paths idempotent), and a machine-specific exception on an
illegal move.  :func:`transition` is the one shared validator.

Funnelling every state change through one call site also gives one
observation point: an observer registered here sees the complete
``(machine, from_state, to_state)`` stream of a run.  The fault-schedule
explorer (``tools/iwarpcheck``) reads the RC composites from it, and
the FSM conformance tests check that every declared move reaches it.

Observers must be cheap and must not raise: they run synchronously
inside protocol event handlers.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Protocol, Set, Tuple

class Stateful(Protocol):
    """Anything carrying a guarded ``state`` attribute."""

    state: str


#: ``observer(machine, from_state, to_state, obj)`` — ``machine`` is the
#: machine's name and ``obj`` the object that moved; called after the
#: write, only for real moves (same-state no-ops are invisible, matching
#: the declared tables, which do not contain self-loops).
TransitionObserver = Callable[[str, str, str, Stateful], None]

_observers: List[TransitionObserver] = []

_NO_TARGETS: FrozenSet[str] = frozenset()


def pair_table(
    events: Mapping[Tuple[str, str], str],
) -> Dict[str, FrozenSet[str]]:
    """Project an event table ``(state, event) -> state`` onto the
    ``state -> allowed next states`` table :func:`transition` enforces.

    Every state the events name becomes a key, so a sink state maps to
    the empty set.  A self-loop arc raises ``ValueError``: a same-state
    move is a silent no-op at runtime, so no observer could ever see it
    and the arc would be unfalsifiable.
    """
    pairs: Dict[str, Set[str]] = {}
    for (src, event), dst in events.items():
        if src == dst:
            raise ValueError(f"self-loop arc ({src!r}, {event!r}) -> {dst!r}")
        pairs.setdefault(src, set()).add(dst)
        pairs.setdefault(dst, set())
    return {state: frozenset(targets) for state, targets in pairs.items()}


def add_transition_observer(observer: TransitionObserver) -> None:
    """Register ``observer`` for every subsequent state transition."""
    if observer not in _observers:
        _observers.append(observer)


def remove_transition_observer(observer: TransitionObserver) -> None:
    """Deregister ``observer`` (a no-op if it is not registered)."""
    try:
        _observers.remove(observer)
    except ValueError:
        pass


def transition(
    machine: Stateful,
    name: str,
    table: Mapping[str, FrozenSet[str]],
    new_state: str,
    error: Callable[[str], Exception],
    detail: Optional[Callable[[Stateful], str]] = None,
) -> bool:
    """Validated state change: the body of every ``_set_state``.

    A same-state "transition" is a no-op returning False.  An undeclared
    move raises ``error(message)`` with the machine's own exception type
    and leaves the state untouched; ``detail(machine)``, called only
    then, appends the instance (ports, QP number) to the message.  A
    declared move writes the state, notifies registered observers, and
    returns True.
    """
    current = machine.state
    if new_state == current:
        return False
    if new_state not in table.get(current, _NO_TARGETS):
        where = detail(machine) if detail is not None else ""
        raise error(
            f"illegal {name} state transition {current} -> {new_state}{where}"
        )
    machine.state = new_state
    for observer in tuple(_observers):
        observer(name, current, new_state, machine)
    return True
