"""Single-machine exploration: reachability and liveness.

Each machine's pair table is derived from its event table, so every
event names a declared state, every declared pair has an event that
takes it, and no arc is a self-loop (:func:`repro.core.fsm.pair_table`
rejects one) — by construction, with no rule to check it.

Rule codes (the IC3xx coverage rules live in :mod:`iwarpcheck.sanitizer`,
the IC4xx fault-schedule oracles in :mod:`iwarpcheck.schedules`):

* **IC104** — a declared state unreachable from the initial state via
  events.
* **IC105** — a reachable state with no event path to any terminal
  state (a live-lock: the machine can get somewhere it can never wind
  down from).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from iwarpcheck.model import Finding, Machine, TraceStep

RULES: Dict[str, str] = {
    "IC104": "declared state unreachable from the initial state",
    "IC105": "reachable state with no path to a terminal state",
}


def reachable_paths(machine: Machine) -> Dict[str, List[TraceStep]]:
    """BFS over the event table: state -> minimal event trace from the
    initial state (the initial state maps to the empty trace)."""
    paths: Dict[str, List[TraceStep]] = {machine.initial: []}
    queue = deque([machine.initial])
    while queue:
        state = queue.popleft()
        for (src, event), dst in machine.events.items():
            if src != state or dst in paths:
                continue
            paths[dst] = paths[state] + [(src, event, dst)]
            queue.append(dst)
    return paths


def _terminal_reachable(machine: Machine, start: str) -> bool:
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in machine.terminals:
            return True
        for (src, _event), dst in machine.events.items():
            if src == state and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return False


def check_machine(machine: Machine) -> List[Finding]:
    """Run every IC1xx rule over one machine."""
    findings: List[Finding] = []
    paths = reachable_paths(machine)

    for state in sorted(machine.states):
        if state not in paths:
            findings.append(
                Finding(
                    machine.name,
                    "IC104",
                    f"state {state} is unreachable from {machine.initial} "
                    f"via the event table",
                )
            )

    for state in sorted(paths):
        if not _terminal_reachable(machine, state):
            findings.append(
                Finding(
                    machine.name,
                    "IC105",
                    f"state {state} has no path to a terminal state "
                    f"({', '.join(sorted(machine.terminals))})",
                    trace=tuple(paths[state]),
                )
            )

    return findings


def event_paths_covering_all_edges(machine: Machine) -> List[List[TraceStep]]:
    """One event path per declared event arc, each starting at the
    initial state and ending with that arc.

    The FSM conformance tests replay these paths through the live
    ``_set_state`` helpers: together they exercise every declared
    ``(from, to)`` pair (the pair table is the projection of the event
    arcs), which is what drives the runtime coverage sanitizer to 100%
    without waivers.
    """
    paths = reachable_paths(machine)
    covering: List[List[TraceStep]] = []
    for (src, event), dst in machine.events.items():
        prefix = paths.get(src)
        if prefix is None:
            continue  # unreachable source: IC104 already reports it
        covering.append(prefix + [(src, event, dst)])
    return covering
