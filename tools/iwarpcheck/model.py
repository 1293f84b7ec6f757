"""Machine and Finding types, plus loaders for the stack's four FSMs.

A :class:`Machine` is the checker's view of one protocol state machine:
the event-labelled table ``(state, event) -> state`` that gives every
arc a protocol meaning, an initial state, and the set of terminal
(quiescent) states every run must be able to reach.  The ``(from, to)``
pair table that ``_set_state`` enforces at runtime is derived from the
events with the stack's own :func:`repro.core.fsm.pair_table`, so the
two views agree by construction.

:func:`load_machines` imports the live ``repro`` modules and reads the
event tables they declare — the checker verifies what the stack
actually ships, not a copy.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.core.fsm import pair_table

#: One step of a counterexample trace: (from_state, event, to_state).
#: Product traces use a composite state rendering on either side.
TraceStep = Tuple[str, str, str]


@dataclass(frozen=True)
class Finding:
    """One model-checker result, optionally with a counterexample trace
    (the minimal event sequence from the initial state that exhibits
    the problem)."""

    machine: str
    rule: str
    message: str
    trace: Tuple[TraceStep, ...] = ()

    def render(self) -> str:
        lines = [f"{self.machine}: {self.rule} {self.message}"]
        if self.trace:
            lines.append("    counterexample trace:")
            for src, event, dst in self.trace:
                lines.append(f"      {src} --{event}--> {dst}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "rule": self.rule,
            "message": self.message,
            "trace": [
                {"from": src, "event": event, "to": dst}
                for src, event, dst in self.trace
            ],
        }


@dataclass(frozen=True)
class Machine:
    """One explicit-state machine under check, declared by its events.

    Construction raises ``ValueError`` on a self-loop arc (see
    :func:`repro.core.fsm.pair_table`)."""

    name: str
    initial: str
    terminals: FrozenSet[str]
    #: Event-labelled table: (state, event) -> next state.
    events: Mapping[Tuple[str, str], str]
    #: Pair view enforced by ``_set_state``: state -> allowed next states.
    table: Mapping[str, FrozenSet[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", pair_table(self.events))

    @property
    def states(self) -> FrozenSet[str]:
        """Every state the events name, plus the initial state."""
        return frozenset(self.table) | {self.initial}

    def declared_pairs(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(
            (src, dst) for src, targets in self.table.items() for dst in targets
        )


#: (machine name, owning module, event-table prefix, initial, terminals).
#: The machine name is the exact string the module's ``_set_state``
#: passes to ``repro.core.fsm.transition`` — the runtime coverage
#: records key on it.
MACHINE_SPECS: Sequence[Tuple[str, str, str, str, FrozenSet[str]]] = (
    ("QP", "repro.core.verbs.qp", "QP", "RESET", frozenset({"ERROR"})),
    (
        "TCP",
        "repro.transport.tcp.connection",
        "TCP",
        "CLOSED",
        frozenset({"CLOSED"}),
    ),
    (
        "MPA",
        "repro.core.mpa.connection",
        "MPA",
        "NEGOTIATING",
        frozenset({"FAILED"}),
    ),
    ("SCTP", "repro.transport.sctp", "SCTP", "CLOSED", frozenset({"CLOSED"})),
)

MACHINE_NAMES: Tuple[str, ...] = tuple(spec[0] for spec in MACHINE_SPECS)


def load_machines() -> List[Machine]:
    """Import the four FSM modules and build their Machine views.

    Requires ``src/`` on ``sys.path`` (the repo-root ``iwarpcheck.py``
    shim arranges this; under pytest, ``PYTHONPATH=src`` does).
    """
    machines: List[Machine] = []
    for name, module_name, prefix, initial, terminals in MACHINE_SPECS:
        module = importlib.import_module(module_name)
        machines.append(
            Machine(
                name=name,
                initial=initial,
                terminals=terminals,
                events=getattr(module, f"{prefix}_EVENT_TRANSITIONS"),
            )
        )
    return machines


def machines_by_name() -> Dict[str, Machine]:
    return {machine.name: machine for machine in load_machines()}
