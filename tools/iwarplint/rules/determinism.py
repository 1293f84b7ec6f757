"""IW4xx — determinism: keep simulated runs seed-reproducible.

Inside the simulation-critical packages (``simnet``, ``transport``,
``core``) this rule forbids:

* **IW401** — wall-clock/entropy reads: ``time.time()``, ``monotonic``,
  ``perf_counter``, ``datetime.now()``, ``os.urandom``, ``uuid.uuid4``…
  Simulated time comes from ``Simulator.now`` only.
* **IW402** — unseeded randomness: any module-level ``random.*`` call
  (hidden global state shared across the process) and ``random.Random()``
  with no seed.  The sanctioned pattern is an explicitly seeded
  ``random.Random(seed)`` instance.
* **IW403** — iteration over a ``set``/``frozenset`` (for-loops and
  comprehensions): set iteration order depends on insertion history and
  hash salting of prior runs' object graph, so it can silently reorder
  retransmissions or completions.  Wrap in ``sorted(...)`` (or use an
  order-insensitive reduction like ``len``/``min``/``sum``).

Anywhere in ``repro`` (apps included) it forbids:

* **IW404** — process-global state: builtin ``hash()`` (salted per
  process by ``PYTHONHASHSEED``) and an ``itertools.count()`` created at
  module level, which numbers across every simulation the process runs.
  Derive values from stable digests and keep counters on the object
  that owns the numbering (a device, a host, a socket).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from iwarplint import invariants as inv
from iwarplint.driver import SourceModule, Violation

RULES = {
    "IW401": "wall-clock or entropy read inside the simulated stack",
    "IW402": "unseeded randomness (module-level random.* or random.Random())",
    "IW403": "iteration over a set (order depends on hashing); use sorted(...)",
    "IW404": "process-global state (builtin hash() or module-level itertools.count())",
}


def _in_scope(name: Optional[str], scopes: Sequence[str]) -> bool:
    return name is not None and any(
        name == p or name.startswith(p + ".") for p in scopes
    )


def check(module: SourceModule) -> Iterator[Violation]:
    if _in_scope(module.name, inv.PROCESS_STATE_SCOPES):
        yield from _check_process_state(module)
    if not _in_scope(module.name, inv.DETERMINISM_SCOPES):
        return
    yield from _check_entropy(module)
    yield from _check_set_iteration(module)


# -- IW401 / IW402 ------------------------------------------------------------


def _dotted_tail(node: ast.expr) -> Tuple[str, ...]:
    """Trailing dotted parts of an attribute chain (up to 3 deep)."""
    parts = []
    cur = node
    while isinstance(cur, ast.Attribute) and len(parts) < 3:
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return tuple(reversed(parts))


def _check_entropy(module: SourceModule) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                for alias in node.names:
                    if alias.name != inv.SEEDED_RNG_CLASS:
                        yield module.violation(
                            "IW402",
                            node,
                            f"from random import {alias.name}: module-level random "
                            "state is unseeded; construct random.Random(seed) instead",
                        )
            elif node.module in inv.ENTROPY_MODULES:
                yield module.violation(
                    "IW401",
                    node,
                    f"import from '{node.module}' pulls process entropy into the "
                    "simulated stack",
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        tail = _dotted_tail(node.func)
        if len(tail) < 2:
            continue
        mod_part, fn = tail[-2], tail[-1]
        if (mod_part, fn) in inv.WALL_CLOCK_CALLS:
            yield module.violation(
                "IW401",
                node,
                f"{mod_part}.{fn}() reads wall-clock/entropy; simulated time "
                "comes from Simulator.now",
            )
        elif mod_part in inv.ENTROPY_MODULES:
            yield module.violation(
                "IW401", node, f"{mod_part}.{fn}() draws process entropy"
            )
        elif tail[0] == "random" and len(tail) == 2:
            if fn == inv.SEEDED_RNG_CLASS:
                if not node.args and not node.keywords:
                    yield module.violation(
                        "IW402",
                        node,
                        "random.Random() with no seed; pass an explicit seed so "
                        "runs replay",
                    )
            else:
                yield module.violation(
                    "IW402",
                    node,
                    f"random.{fn}() uses the unseeded module-level RNG; use an "
                    "explicitly seeded random.Random(seed) instance",
                )


# -- IW403 --------------------------------------------------------------------


class _SetTracker(ast.NodeVisitor):
    """Collects names/attributes that are statically set-typed."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()  # local/global variable names
        self.set_attrs: Set[str] = set()  # "self.<attr>" spellings

    def _record(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.set_attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_names, self.set_attrs):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation) or (
            node.value is not None
            and _is_set_expr(node.value, self.set_names, self.set_attrs)
        ):
            self._record(node.target)
        self.generic_visit(node)

    def _record_params(self, args: ast.arguments) -> None:
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                self.set_names.add(arg.arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._record_params(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._record_params(node.args)
        self.generic_visit(node)


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        try:
            text = ast.unparse(node)
        except Exception:
            return False
    head = text.split("[", 1)[0].split(".")[-1].strip()
    return head in {"set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet"}


def _is_set_expr(node: ast.expr, set_names: Set[str], set_attrs: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr in set_attrs
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names, set_attrs) or _is_set_expr(
            node.right, set_names, set_attrs
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        # s.union(t), s.copy(), s.difference(t), ...
        if node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
            "copy",
        }:
            return _is_set_expr(node.func.value, set_names, set_attrs)
    return False


def _check_set_iteration(module: SourceModule) -> Iterator[Violation]:
    tracker = _SetTracker()
    tracker.visit(module.tree)

    # ``any(p(x) for x in some_set)`` and the other order-insensitive
    # reductions cannot observe iteration order; exempt a generator
    # expression that is the sole argument of such a call.
    reduced: Set[int] = set()
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in inv.ORDER_INSENSITIVE_WRAPPERS
            and len(node.args) == 1
            and isinstance(node.args[0], ast.GeneratorExp)
        ):
            reduced.add(id(node.args[0]))

    def iter_is_set(node: ast.expr) -> bool:
        # ``for x in sorted(s)`` and friends are fine; the wrapper names
        # in ORDER_INSENSITIVE_WRAPPERS normalise or reduce the order.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in inv.ORDER_INSENSITIVE_WRAPPERS
        ):
            return False
        return _is_set_expr(node, tracker.set_names, tracker.set_attrs)

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and iter_is_set(node.iter):
            yield module.violation(
                "IW403",
                node.iter,
                "for-loop iterates a set; order depends on hashing — "
                "iterate sorted(...) instead",
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # (set comprehensions are excluded: their result is itself
            # unordered, so the source order cannot leak out)
            if isinstance(node, ast.GeneratorExp) and id(node) in reduced:
                continue
            for comp in node.generators:
                if iter_is_set(comp.iter):
                    yield module.violation(
                        "IW403",
                        comp.iter,
                        "comprehension iterates a set; order depends on hashing — "
                        "iterate sorted(...) instead",
                    )


# -- IW404 --------------------------------------------------------------------


def _module_level(tree: ast.Module) -> Iterator[ast.AST]:
    """Nodes evaluated once, at import: everything outside function
    bodies (class bodies, decorators and argument defaults included)."""
    stack: list = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_process_state(module: SourceModule) -> Iterator[Violation]:
    modules = {"itertools"}  # names bound to the itertools module
    counters: Set[str] = set()  # names bound to itertools.count
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "itertools")
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            counters.update(a.asname or a.name for a in node.names if a.name == "count")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "hash"):
            yield module.violation(
                "IW404", node,
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "derive the value from a stable digest or per-object state",
            )
    for node in _module_level(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id in counters) or (
            isinstance(func, ast.Attribute) and func.attr == "count"
            and isinstance(func.value, ast.Name) and func.value.id in modules
        ):
            yield module.violation(
                "IW404", node,
                "module-level itertools.count() numbers across every "
                "simulation in the process; keep the counter on the object "
                "that owns the numbering",
            )
