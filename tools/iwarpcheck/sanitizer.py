"""Runtime transition-coverage sanitizer.

The model checker proves the declared tables sound; this module closes
the loop against the *running* stack.  A :class:`TransitionRecorder`
registers as an observer on ``repro.core.fsm`` — the single choke point
every ``_set_state`` funnels through — and counts each ``(machine,
from, to)`` the test suite actually takes.  The coverage gate then
compares the recording against the declared pair tables:

* **IC301** — the suite took a transition no table declares.  This
  cannot happen through ``_set_state`` (it would have raised), so it
  flags recordings from a stale or divergent build.
* **IC302** — a declared transition no test exercised and no waiver
  covers.  Untested transitions are where table rot hides; either
  exercise them or waive them with a reason.
* **IC303** — a waiver that references an unknown machine or a pair the
  tables don't declare (the waiver itself has rotted).
* **IC304** — a stale waiver: the pair is waived but the suite covers
  it; the waiver should be deleted.

Waiver manifest format (``tools/iwarpcheck/waivers.txt``), one waiver
per line, ``#`` comments and blank lines ignored::

    MACHINE FROM -> TO: reason the transition cannot be exercised
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from iwarpcheck.model import Finding, Machine

RULES: Dict[str, str] = {
    "IC301": "runtime transition not declared by any table",
    "IC302": "declared transition not exercised and not waived",
    "IC303": "waiver references an unknown machine or undeclared transition",
    "IC304": "stale waiver: the waived transition is covered",
}

RECORDS_VERSION = 1

#: ``MACHINE FROM -> TO: reason``
_WAIVER_RE = re.compile(
    r"^(?P<machine>\S+)\s+(?P<src>\S+)\s*->\s*(?P<dst>\S+)\s*:\s*(?P<reason>.+\S)\s*$"
)


@dataclass(frozen=True)
class Waiver:
    machine: str
    src: str
    dst: str
    reason: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.machine, self.src, self.dst)


class WaiverError(ValueError):
    """A malformed waiver manifest — a configuration error (exit 2)."""


def parse_waivers(text: str, source: str = "<waivers>") -> List[Waiver]:
    waivers: List[Waiver] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _WAIVER_RE.match(line)
        if match is None:
            raise WaiverError(
                f"{source}:{lineno}: malformed waiver {line!r} "
                f"(expected 'MACHINE FROM -> TO: reason')"
            )
        waivers.append(
            Waiver(
                machine=match.group("machine"),
                src=match.group("src"),
                dst=match.group("dst"),
                reason=match.group("reason"),
            )
        )
    return waivers


def load_waivers(path: str) -> List[Waiver]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_waivers(handle.read(), source=path)


@dataclass
class TransitionRecorder:
    """Counts every transition the shared ``transition()`` helper
    applies while installed.  Install for the duration of a test
    session (``tests/conftest.py`` does, when ``IWARP_FSM_COVERAGE``
    names an output path)."""

    counts: Dict[Tuple[str, str, str], int] = field(default_factory=dict)

    def __call__(self, machine: str, src: str, dst: str, obj: object) -> None:
        key = (machine, src, dst)
        self.counts[key] = self.counts.get(key, 0) + 1

    def install(self) -> None:
        from repro.core.fsm import add_transition_observer

        add_transition_observer(self)

    def uninstall(self) -> None:
        from repro.core.fsm import remove_transition_observer

        remove_transition_observer(self)

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": RECORDS_VERSION,
            "transitions": [
                {"machine": machine, "from": src, "to": dst, "count": count}
                for (machine, src, dst), count in sorted(self.counts.items())
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class RecordsError(ValueError):
    """An unreadable or wrong-shape records file (exit 2)."""


def load_records(path: str) -> Dict[Tuple[str, str, str], int]:
    """Read a recorder payload back into ``(machine, from, to) -> count``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise RecordsError(f"cannot read records file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != RECORDS_VERSION:
        raise RecordsError(
            f"records file {path} is not a version-{RECORDS_VERSION} "
            f"iwarpcheck recording"
        )
    counts: Dict[Tuple[str, str, str], int] = {}
    for entry in payload.get("transitions", []):
        try:
            key = (entry["machine"], entry["from"], entry["to"])
            counts[key] = counts.get(key, 0) + int(entry["count"])
        except (TypeError, KeyError) as exc:
            raise RecordsError(
                f"records file {path} has a malformed transition entry: "
                f"{entry!r}"
            ) from exc
    return counts


def coverage_findings(
    records: Mapping[Tuple[str, str, str], int],
    machines: Sequence[Machine],
    waivers: Iterable[Waiver] = (),
) -> List[Finding]:
    """Run the IC3xx coverage rules over one recording."""
    findings: List[Finding] = []
    by_name = {machine.name: machine for machine in machines}

    declared: Dict[str, frozenset] = {
        name: machine.declared_pairs() for name, machine in by_name.items()
    }
    covered = {
        (machine, src, dst)
        for (machine, src, dst), count in records.items()
        if count > 0
    }
    waived: Dict[Tuple[str, str, str], Waiver] = {}

    for waiver in waivers:
        if (
            waiver.machine not in by_name
            or (waiver.src, waiver.dst) not in declared[waiver.machine]
        ):
            findings.append(
                Finding(
                    waiver.machine,
                    "IC303",
                    f"waiver {waiver.machine} {waiver.src} -> {waiver.dst} "
                    f"references an unknown machine or undeclared transition",
                )
            )
            continue
        waived[waiver.key] = waiver
        if waiver.key in covered:
            findings.append(
                Finding(
                    waiver.machine,
                    "IC304",
                    f"stale waiver: {waiver.src} -> {waiver.dst} is covered "
                    f"by the suite ({waiver.reason!r}); delete the waiver",
                )
            )

    for machine, src, dst in sorted(covered):
        if machine not in by_name or (src, dst) not in declared[machine]:
            findings.append(
                Finding(
                    machine,
                    "IC301",
                    f"runtime transition {src} -> {dst} is not declared by "
                    f"any table (stale recording or divergent build?)",
                )
            )

    for name in sorted(by_name):
        for src, dst in sorted(declared[name]):
            key = (name, src, dst)
            if key not in covered and key not in waived:
                findings.append(
                    Finding(
                        name,
                        "IC302",
                        f"declared transition {src} -> {dst} was never "
                        f"exercised by the suite and is not waived",
                    )
                )

    return findings


def coverage_summary(
    records: Mapping[Tuple[str, str, str], int],
    machines: Sequence[Machine],
    waivers: Iterable[Waiver] = (),
) -> Dict[str, Dict[str, int]]:
    """Per-machine declared/covered/waived counts for reports."""
    waived_keys = {waiver.key for waiver in waivers}
    summary: Dict[str, Dict[str, int]] = {}
    for machine in machines:
        pairs = machine.declared_pairs()
        covered = sum(
            1
            for src, dst in pairs
            if records.get((machine.name, src, dst), 0) > 0
        )
        waived = sum(
            1
            for src, dst in pairs
            if (machine.name, src, dst) in waived_keys
            and records.get((machine.name, src, dst), 0) == 0
        )
        summary[machine.name] = {
            "declared": len(pairs),
            "covered": covered,
            "waived": waived,
        }
    return summary
