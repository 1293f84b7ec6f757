"""Named metrics registry: declared series tables read at snapshot time.

The observability layer the evaluation figures lean on.  Design rules:

* **Stdlib only, support layer.**  ``repro.obs`` imports nothing from
  the protocol stack (iwarplint treats it like ``memory``/``models``:
  any layer may import it, it may import none of them).
* **Each series declared once.**  A counting class lists its series in
  one literal class-level ``METRICS`` table of ``(name, kind, path)`` or
  ``(name, kind, path, labels)`` rows:

  - ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"`` (the field
    holds a :class:`Histogram`), or ``"table"``: ``name`` is then None
    and the object — or each object of a list — at ``path`` is read
    through its own table under the same labels;
  - ``path`` is a dotted attribute path (``rx.drops_no_recv_posted``,
    ``cong.cwnd``) resolved at snapshot time; a None on the way yields
    no series;
  - ``labels`` is a comma-separated list: ``dir=tx`` adds a fixed label,
    a bare name (``cause``) says the field is a dict whose keys label
    the series (several bare names: tuple keys).

  The fields are plain ints, dicts and histograms the stack counts
  unconditionally; :meth:`Registry.watch` registers an object with its
  labels, computed once.
* **~zero cost when disabled.**  A disabled registry ignores ``watch``,
  so it holds no reference into the stack.  Metrics never schedule
  events, never branch protocol logic, and never read simulated state
  except at snapshot time — so an enabled run and a disabled run
  produce bit-identical simulations (tested in
  ``tests/obs/test_determinism.py``).
* **Documented naming scheme** (DESIGN.md §8): every metric name is
  ``layer.component.name`` — at least three lowercase dot-separated
  segments, first segment one of :data:`METRIC_LAYERS`.  Violations are
  a :class:`RegistryError` from ``watch`` and a static IW501 in
  iwarplint on the table literals (the pattern is mirrored in
  ``tools/iwarplint/invariants.py``).

One registry exists per :class:`~repro.simnet.engine.Simulator`, lazily
attached by :func:`sim_registry` — per-testbed isolation without any
global mutable state (beyond the opt-in ``IWARP_OBS_DUMP`` tracking
used to merge a whole test session's snapshots into one CI artifact).
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

#: Mirrored in ``tools/iwarplint/invariants.py`` (IW501 checks source
#: literals against the same pattern).
METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$"

#: Legal first segments: the stack layers plus the support layers that
#: own measurable state.
METRIC_LAYERS = frozenset({
    "apps", "bench", "socketif", "verbs", "rdmap", "ddp", "mpa",
    "transport", "simnet", "memory", "models", "obs",
})

#: Default histogram upper edges (powers of two: batch sizes, counts).
DEFAULT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Row kinds that export a field (``"table"`` rows nest another table).
SERIES_KINDS = frozenset({"counter", "gauge", "histogram"})

_NAME_RE = re.compile(METRIC_NAME_PATTERN)

LabelItems = Tuple[Tuple[str, str], ...]


class RegistryError(Exception):
    """Metric misuse: bad name, kind collision, bucket mismatch."""


def validate_name(name: str) -> str:
    """Check ``name`` against the ``layer.component.name`` scheme."""
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"metric name {name!r} does not match the layer.component.name "
            f"scheme (pattern {METRIC_NAME_PATTERN})"
        )
    layer = name.split(".", 1)[0]
    if layer not in METRIC_LAYERS:
        raise RegistryError(
            f"metric name {name!r} starts with unknown layer {layer!r} "
            f"(known: {', '.join(sorted(METRIC_LAYERS))})"
        )
    return name


def _check_edges(edges: Tuple[float, ...]) -> None:
    if not edges:
        raise RegistryError("histogram needs at least one bucket edge")
    if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
        raise RegistryError(f"bucket edges must be strictly ascending: {edges}")


_check_edges(DEFAULT_BUCKETS)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``edges`` are ascending inclusive upper bounds; an observation lands
    in the first bucket whose edge is ``>= value``, or in the implicit
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        # Every CQ carries a histogram: share the default edges, which
        # were checked once at import.
        if edges is not DEFAULT_BUCKETS:
            _check_edges(edges)
            edges = tuple(float(e) for e in edges)
        self.edges: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)  # last = +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[Union[float, str], int]]:
        """``(upper_edge, cumulative_count)`` pairs ending with +Inf."""
        out: List[Tuple[Union[float, str], int]] = []
        running = 0
        for edge, n in zip(self.edges, self.counts):
            running += n
            out.append((edge, running))
        out.append(("+Inf", self.count))
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; bucket edges must match exactly."""
        if other.edges != self.edges:
            raise RegistryError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [[edge, cum] for edge, cum in self.cumulative()],
        }

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.sum = 0.0
        self.count = 0


# ---------------------------------------------------------------------------
# Samples (the exporter/snapshot interchange unit)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One exported data point."""

    name: str
    labels: LabelItems
    kind: str  # "counter" | "gauge" | "histogram"
    value: Any  # number, or Histogram.as_dict() for histograms

    def key(self) -> str:
        """Canonical flat key: ``name{k="v",...}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: A parsed table row: name, kind, attribute path, fixed labels, dict-key
#: label names.
_Row = Tuple[Optional[str], str, Tuple[str, ...], LabelItems, Tuple[str, ...]]


class Registry:
    """Watched objects, read through their ``METRICS`` tables."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._watched: List[Tuple[Any, LabelItems]] = []
        # Parsed tables, and name -> kind / histogram edges: every name
        # keeps one kind (and one bucket layout) across all tables.
        self._tables: Dict[Tuple[Any, ...], List[_Row]] = {}
        self._kinds: Dict[str, str] = {}
        self._edges: Dict[str, Tuple[float, ...]] = {}

    def watch(self, obj: Any, labels: Dict[str, Any]) -> None:
        """Export ``obj``'s declared series under ``labels``, read at
        snapshot time.  Validates the table's names and kinds; a no-op
        when disabled, so a disabled registry holds no references into
        the stack."""
        if self.enabled:
            self._rows(obj.METRICS)
            self._watched.append((obj, _label_items(labels)))

    def _rows(self, table: Tuple[Any, ...]) -> List[_Row]:
        """Parse and validate a table once (tables are class constants)."""
        rows = self._tables.get(table)
        if rows is not None:
            return rows
        rows = []
        for name, kind, path, *spec in table:
            if kind != "table":
                if kind not in SERIES_KINDS:
                    raise RegistryError(f"metric {name!r} has unknown kind {kind!r}")
                validate_name(name)
                registered = self._kinds.setdefault(name, kind)
                if registered != kind:
                    raise RegistryError(
                        f"metric {name!r} already registered as {registered} "
                        f"— cannot re-register as {kind}"
                    )
            fixed, keys = [], []
            for part in spec[0].split(",") if spec else ():
                label, _, value = part.partition("=")
                if value:
                    fixed.append((label, value))
                else:
                    keys.append(label)
            rows.append((name, kind, tuple(path.split(".")), tuple(fixed), tuple(keys)))
        self._tables[table] = rows
        return rows

    # -- reading -----------------------------------------------------------

    def _read(self, obj: Any, labels: LabelItems,
              out: Dict[Tuple[str, LabelItems], Sample]) -> None:
        for name, kind, path, fixed, keys in self._rows(obj.METRICS):
            value = obj
            for attr in path:
                if value is None:
                    break
                value = getattr(value, attr)
            if value is None:
                continue
            if kind == "table":
                for child in value if isinstance(value, (list, tuple)) else (value,):
                    self._read(child, labels, out)
                continue
            base = labels + fixed
            if not keys:
                self._add(out, name, base, kind, value)
                continue
            for key, v in value.items():
                parts = key if len(keys) > 1 else (key,)
                self._add(out, name, base + tuple(zip(keys, map(str, parts))), kind, v)

    def _add(self, out: Dict[Tuple[str, LabelItems], Sample], name: str,
             labels: LabelItems, kind: str, value: Any) -> None:
        labels = tuple(sorted(labels))
        if kind == "histogram":
            edges = self._edges.setdefault(name, value.edges)
            if edges != value.edges:
                raise RegistryError(
                    f"histogram {name!r} has edges {value.edges}, "
                    f"already registered with {edges}"
                )
            value = value.as_dict()
        prev = out.get((name, labels))
        if prev is not None and kind == "counter":
            value += prev.value  # one key from several objects: sum
        out[(name, labels)] = Sample(name, labels, kind, value)

    def collect(self) -> List[Sample]:
        """Every watched series, sorted by (name, labels)."""
        out: Dict[Tuple[str, LabelItems], Sample] = {}
        for obj, labels in self._watched:
            self._read(obj, labels, out)
        return sorted(out.values(), key=lambda s: (s.name, s.labels))

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Flat ``{canonical_key: value}`` dict (histograms appear as
        their ``as_dict()`` form).  ``prefix`` filters by name prefix."""
        out: Dict[str, Any] = {}
        for s in self.collect():
            if prefix is not None and not s.name.startswith(prefix):
                continue
            out[s.key()] = s.value
        return out


def diff(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-key delta of two :meth:`Registry.snapshot` dicts.

    Keys present only in ``after`` count from zero; keys that vanished
    are dropped.  Histogram values diff count/sum/buckets element-wise.
    """
    out: Dict[str, Any] = {}
    for key, after_v in after.items():
        before_v = before.get(key)
        if isinstance(after_v, dict):
            if not isinstance(before_v, dict):
                before_v = {"count": 0, "sum": 0.0, "buckets": []}
            before_cum = {edge: cum for edge, cum in before_v.get("buckets", [])}
            out[key] = {
                "count": after_v["count"] - before_v.get("count", 0),
                "sum": after_v["sum"] - before_v.get("sum", 0.0),
                "buckets": [
                    [edge, cum - before_cum.get(edge, 0)]
                    for edge, cum in after_v.get("buckets", [])
                ],
            }
        else:
            out[key] = after_v - (before_v or 0)
    return out


# ---------------------------------------------------------------------------
# Per-simulator attachment
# ---------------------------------------------------------------------------

#: Registries created while ``IWARP_OBS_DUMP`` names a path — merged
#: into one snapshot artifact at test-session end (see repro.obs.export
#: and tests/conftest.py).
_TRACKED: List[Registry] = []


def default_enabled() -> bool:
    """Metrics default: the ``IWARP_OBS`` environment switch."""
    return os.environ.get("IWARP_OBS", "") not in ("", "0")


def sim_registry(sim: Any, enable: Optional[bool] = None) -> Registry:
    """The one :class:`Registry` attached to ``sim`` (lazily created).

    ``enable`` pins the enabled state at creation; ``None`` defers to
    :func:`default_enabled`.  The first caller wins — components created
    under the same simulator all see the same registry, which is why
    :func:`repro.simnet.topology.build_testbed` resolves it before any
    port or stack exists.
    """
    reg = getattr(sim, "obs_registry", None)
    if reg is None:
        reg = Registry(enabled=default_enabled() if enable is None else enable)
        sim.obs_registry = reg
        if os.environ.get("IWARP_OBS_DUMP"):
            _TRACKED.append(reg)
    return reg
