"""Event tracing for tests and debugging.

A :class:`Tracer` records ``(time, kind, fields)`` tuples; tests assert
on them ("exactly three fragments left host A", "the retransmission
happened after one RTO") without poking at protocol internals.

Each simulator has one frame-trace sink, ``sim.tracer`` (None by
default): every NIC and switch port of that simulator records its
``tx``, ``rx`` and ``drop.*`` frames there.  Attach it before the
traffic of interest starts, e.g. ``sim.tracer = Tracer(sim)`` before
``VerbsEndpointPair.build(mode, sim=sim)`` so the RC handshake is
traced too (the scenario catalogue, :mod:`repro.bench.scenarios`, does
this).  WR lifecycle spans go to a separate per-host tracer,
``host.wr_tracer`` (:mod:`repro.obs.spans`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .engine import Simulator


@dataclass
class TraceRecord:
    time: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time}ns] {self.kind} {kv}"


class Tracer:
    """Append-only trace buffer with simple filtering."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.dropped_records = 0

    def record(self, kind: str, **fields: Any) -> None:
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped_records += 1
            return
        self.records.append(TraceRecord(self.sim.now, kind, fields))

    def select(
        self,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        **fields: Any,
    ) -> List[TraceRecord]:
        """Records matching ``kind``, the optional ``predicate``, and
        exact equality on any keyword ``fields`` (e.g.
        ``select("wr.span", stage="retransmit")``)."""
        out = self.records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        for key, want in fields.items():
            out = [r for r in out if r.fields.get(key) == want]
        return list(out)

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)

    def clear(self) -> None:
        self.records.clear()
        self.dropped_records = 0
