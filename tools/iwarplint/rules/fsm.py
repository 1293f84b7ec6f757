"""IW2xx — FSM conformance for QP and connection state machines.

For each :class:`~iwarplint.invariants.FsmSpec` this rule checks, inside
the module that owns the FSM:

* **IW201** — a direct write to ``self.<attr>`` outside the validated
  ``_set_state`` helper (the only permitted direct write is assigning an
  initial state inside ``__init__``).
* **IW202** — a ``self._set_state(X)`` call whose statically-inferable
  source states (from enclosing ``self.state == S`` / ``in (..)`` guards,
  including early-``raise``/``return`` negations) include a state from
  which no arc of the module's event table reaches ``X``.
* **IW203** — a state write or transition using a name that is not one
  of the machine's declared states.
* **IW204** — the module binds no literal event table
  (``QP_EVENT_TRANSITIONS`` etc.) that iwarplint can read, so IW202 and
  IW203 could not check anything.

The event table is parsed from the module's own AST, never imported:
fixture trees are linted but not importable.

Unguarded helper calls (source set = "could be anything") are left to
the runtime validation inside ``_set_state`` itself: flagging them
statically would punish helpers whose callers hold the guard.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from iwarplint import invariants as inv
from iwarplint.driver import SourceModule, Violation
from iwarplint.invariants import FsmSpec

RULES = {
    "IW201": "direct state write bypassing the validated _set_state helper",
    "IW202": "guarded transition not permitted by the module's event table",
    "IW203": "state write/transition uses an undeclared state name",
    "IW204": "FSM module has no literal event table iwarplint can read",
}

# ``None`` means "could be any state" (no usable guard information).
Facts = Optional[FrozenSet[str]]


def check(module: SourceModule) -> Iterator[Violation]:
    for spec in inv.FSM_SPECS:
        if module.name != spec.module:
            continue
        consts = _state_constants(module.tree)
        binding = _table_binding(module.tree, spec)
        table = _project(binding.value, consts) if binding is not None else None
        if table is None:
            yield module.violation(
                "IW204",
                binding or module.tree,
                f"no literal {spec.table_name} dict of (state, event) -> state; "
                "iwarplint cannot check this module's transitions",
            )
            continue
        for func, in_helper in _functions(module.tree, spec):
            walker = _FsmWalker(module, spec, table, consts, func.name, in_helper)
            walker.walk_block(func.body, None)
            yield from walker.findings


def _state_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "STRING"`` bindings for declared states."""
    consts: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            consts[node.targets[0].id] = node.value.value
    return consts


def _functions(tree: ast.Module, spec: FsmSpec) -> Iterator[Tuple[ast.FunctionDef, bool]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name == spec.helper


def _table_binding(tree: ast.Module, spec: FsmSpec) -> Optional[Union[ast.Assign, ast.AnnAssign]]:
    """The module-level statement binding ``spec.table_name``, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == spec.table_name for t in targets):
            return node
    return None


def _project(
    value: Optional[ast.expr], consts: Dict[str, str]
) -> Optional[Dict[str, FrozenSet[str]]]:
    """``(from, to)`` projection of a literal ``(state, event) -> state``
    dict, or None when ``value`` is not one iwarplint can read."""
    if not isinstance(value, ast.Dict):
        return None
    pairs: Dict[str, Set[str]] = {}
    for key_node, val_node in zip(value.keys, value.values):
        if not (isinstance(key_node, ast.Tuple) and len(key_node.elts) == 2):
            return None
        src = _state_of(key_node.elts[0], consts)
        event = _state_of(key_node.elts[1], consts)
        dst = _state_of(val_node, consts)
        if src is None or event is None or dst is None:
            return None
        pairs.setdefault(src, set()).add(dst)
        pairs.setdefault(dst, set())
    return {state: frozenset(targets) for state, targets in pairs.items()}


def _state_of(node: Optional[ast.expr], consts: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id in consts:
        return consts[node.id]
    return None


def _state_set_of(node: ast.expr, consts: Dict[str, str]) -> Optional[Set[str]]:
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elems = node.elts
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
        and not node.keywords
    ):
        if not node.args:
            return set()
        return _state_set_of(node.args[0], consts)
    else:
        return None
    out: Set[str] = set()
    for elem in elems:
        state = _state_of(elem, consts)
        if state is None:
            return None
        out.add(state)
    return out


class _FsmWalker:
    """Statement walker tracking what ``self.state`` can be at each point."""

    def __init__(
        self,
        module: SourceModule,
        spec: FsmSpec,
        table: Dict[str, FrozenSet[str]],
        consts: Dict[str, str],
        func_name: str,
        in_helper: bool,
    ) -> None:
        self.module = module
        self.spec = spec
        self.table = table
        self.states = frozenset(table) | spec.initial
        self.consts = consts
        self.func_name = func_name
        self.in_helper = in_helper
        self.findings: List[Violation] = []

    # -- facts algebra ---------------------------------------------------

    def _intersect(self, a: Facts, b: Facts) -> Facts:
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    # -- guard parsing ---------------------------------------------------

    def _is_state_attr(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == self.spec.attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _guard_facts(self, test: ast.expr) -> Tuple[Facts, Facts]:
        """(facts when test is true, facts when test is false)."""
        if isinstance(test, ast.BoolOp):
            branches = [self._guard_facts(v) for v in test.values]
            if isinstance(test.op, ast.And):
                true_facts: Facts = None
                for pos, _neg in branches:
                    true_facts = self._intersect(true_facts, pos)
                return true_facts, None
            # Or: true branch is the union of positives (if all known);
            # false branch intersects the negatives.
            positives = [pos for pos, _ in branches]
            false_facts: Facts = None
            for _pos, neg in branches:
                false_facts = self._intersect(false_facts, neg)
            if any(p is None for p in positives):
                return None, false_facts
            union: Set[str] = set()
            for p in positives:
                union |= p  # type: ignore[arg-type]
            return frozenset(union), false_facts
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            pos, neg = self._guard_facts(test.operand)
            return neg, pos
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None, None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if not self._is_state_attr(left):
            return None, None
        if isinstance(op, (ast.Eq, ast.NotEq)):
            state = _state_of(right, self.consts)
            if state is None:
                return None, None
            eq = frozenset({state})
            ne = self.states - eq
            return (eq, ne) if isinstance(op, ast.Eq) else (ne, eq)
        if isinstance(op, (ast.In, ast.NotIn)):
            states = _state_set_of(right, self.consts)
            if states is None:
                return None, None
            inside = frozenset(states)
            outside = self.states - inside
            return (inside, outside) if isinstance(op, ast.In) else (outside, inside)
        return None, None

    # -- statement walking -----------------------------------------------

    @staticmethod
    def _terminates(stmts: List[ast.stmt]) -> bool:
        if not stmts:
            return False
        last = stmts[-1]
        return isinstance(last, (ast.Raise, ast.Return, ast.Continue, ast.Break))

    def walk_block(self, stmts: List[ast.stmt], facts: Facts) -> Facts:
        for stmt in stmts:
            facts = self._walk_stmt(stmt, facts)
        return facts

    def _walk_stmt(self, stmt: ast.stmt, facts: Facts) -> Facts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return facts  # nested defs are visited via _functions()
        if isinstance(stmt, ast.If):
            true_facts, false_facts = self._guard_facts(stmt.test)
            self.walk_block(stmt.body, self._intersect(facts, true_facts))
            self.walk_block(stmt.orelse, self._intersect(facts, false_facts))
            if self._terminates(stmt.body) and not stmt.orelse:
                # ``if state != X: raise`` — afterwards state must be X.
                return self._intersect(facts, false_facts)
            return None  # merged paths: give up rather than guess
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # Later iterations may see states mutated inside the loop;
            # analyse the body with no assumptions.
            self.walk_block(stmt.body, None)
            self.walk_block(stmt.orelse, None)
            return None
        if isinstance(stmt, ast.Try):
            self.walk_block(stmt.body, facts)
            for handler in stmt.handlers:
                self.walk_block(handler.body, None)
            self.walk_block(stmt.orelse, None)
            self.walk_block(stmt.finalbody, None)
            return None
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.walk_block(stmt.body, facts)
        return self._walk_simple(stmt, facts)

    def _walk_simple(self, stmt: ast.stmt, facts: Facts) -> Facts:
        new_facts = facts
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                result = self._check_direct_write(node, facts)
                if result is not None:
                    new_facts = result
            elif isinstance(node, ast.Call):
                result = self._check_helper_call(node, facts)
                if result is not None:
                    new_facts = result
        return new_facts

    def _check_direct_write(self, node: ast.stmt, facts: Facts) -> Facts:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:  # AugAssign
            targets = [node.target]  # type: ignore[attr-defined]
            value = None
        if not any(self._is_state_attr(t) for t in targets):
            return None
        state = _state_of(value, self.consts) if value is not None else None
        if self.in_helper:
            return frozenset({state}) if state is not None else None
        if self.func_name == "__init__" and state is not None and state in self.spec.initial:
            return frozenset({state})
        self.findings.append(
            self.module.violation(
                "IW201",
                node,
                f"direct write to self.{self.spec.attr} in {self.func_name}(); "
                f"route transitions through {self.spec.helper}()",
            )
        )
        if state is not None and state not in self.states:
            self.findings.append(
                self.module.violation(
                    "IW203",
                    node,
                    f"'{state}' is not a declared state of {self.spec.module}",
                )
            )
        return frozenset({state}) if state is not None else None

    def _check_helper_call(self, node: ast.Call, facts: Facts) -> Facts:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == self.spec.helper
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return None
        if not node.args:
            return None
        target = _state_of(node.args[0], self.consts)
        if target is None:
            return None  # dynamic argument: validated at runtime
        if target not in self.states:
            self.findings.append(
                self.module.violation(
                    "IW203",
                    node,
                    f"'{target}' is not a declared state of {self.spec.module}",
                )
            )
            return None
        if facts is not None:
            bad = sorted(
                s
                for s in facts
                if s != target and target not in self.table.get(s, frozenset())
            )
            if bad:
                self.findings.append(
                    self.module.violation(
                        "IW202",
                        node,
                        f"transition {'/'.join(bad)} -> {target} is not permitted "
                        f"by {self.spec.table_name}",
                    )
                )
        return frozenset({target})
