"""IW5xx — metric naming: declared series tables vs the naming scheme.

Every string-literal metric name in a ``METRICS`` table — the first
element of each ``(name, kind, path[, labels])`` row — must follow the
``layer.component.name`` scheme mirrored from ``repro.obs.metrics``: at
least three lowercase dot-separated segments, first segment a known
layer.  The runtime raises ``RegistryError`` for the same violations,
but only when a test happens to build the object with metrics enabled;
IW501 catches the literal at lint time.

Non-literal names are left to the runtime check, which runs on every
``watch`` of a new table.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from iwarplint import invariants as inv
from iwarplint.driver import SourceModule, Violation

RULES = {
    "IW501": "metric name violates the layer.component.name scheme",
}

_NAME_RE = re.compile(inv.METRIC_NAME_PATTERN)

#: Only repro code (and fixtures shaped like it) is in scope; the tools
#: themselves and loose scripts are not.
_WATCHED_PREFIX = "repro"


def _watched(name: Optional[str]) -> bool:
    return name is not None and (
        name == _WATCHED_PREFIX or name.startswith(_WATCHED_PREFIX + ".")
    )


def _bad_name(name: str) -> Optional[str]:
    """Reason ``name`` violates the scheme, or None if it conforms."""
    if not _NAME_RE.match(name):
        return (
            f"metric name '{name}' does not match layer.component.name "
            f"(pattern {inv.METRIC_NAME_PATTERN})"
        )
    layer = name.split(".", 1)[0]
    if layer not in inv.METRIC_LAYERS:
        return (
            f"metric name '{name}' starts with unknown layer '{layer}' "
            f"(known: {', '.join(sorted(inv.METRIC_LAYERS))})"
        )
    return None


def _table_values(tree: ast.AST) -> Iterator[ast.expr]:
    """Right-hand sides of every ``METRICS = ...`` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == inv.METRIC_TABLE for t in targets):
            yield value


def check(module: SourceModule) -> Iterator[Violation]:
    if not _watched(module.name):
        return
    for table in _table_values(module.tree):
        # Rows may sit in concatenations (``Base.METRICS + (...)``).
        for row in ast.walk(table):
            if not (isinstance(row, (ast.Tuple, ast.List)) and row.elts):
                continue
            name_node = row.elts[0]
            if not (isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)):
                continue  # nested tables (None) and computed names
            reason = _bad_name(name_node.value)
            if reason is not None:
                yield module.violation("IW501", row, reason)
