"""List the ``repro`` functions that neither tier-1 nor ``benchmarks/`` calls.

Runs ``pytest tests`` and then ``pytest benchmarks`` in this process
under ``sys.settrace`` (``count_calls`` in the scenario catalogue owns
``sys.setprofile``), records every code object under ``src/repro``
that is entered, and compares the functions and methods never entered
against :data:`ALLOWED`.  Lambdas and comprehensions are not counted,
nor is a function whose first line says ``pragma: no cover`` (the
``__repr__`` debugging aids).
Exits 1 if an uncalled function is not allowed, if an allowed one is
called after all (drop it from the list), or if either test run fails.
Needs CPython 3.11+ (``co_qualname``).

The benchmark pass regenerates ``results/*.json`` as ``make
results-check`` does.  Run from the repository root::

    PYTHONPATH=src python scripts/reach_check.py      # or: make reach-check
"""

from __future__ import annotations

import inspect
import os
import sys
import types
from typing import Dict, Iterator, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep

#: Functions no tier-1 test or benchmark calls, as ``module:qualname``,
#: each with the reason it stays.
ALLOWED: Dict[str, str] = {
    "repro.core.verbs.qp:QueuePair.channel_send": "abstract: every QP type overrides it",
    "repro.core.verbs.qp:QueuePair._release_channel": "abstract: every QP type overrides it",
    "repro.simnet.faults:FaultModel._admit": "abstract: every fault stage overrides it",
    "repro.simnet.loss:LossModel._decide": "abstract: every loss model overrides it",
    "repro.bench.claims:main": "the python -m repro.bench.claims entry point (make results-check)",
    "repro.bench.scenarios:count_calls.<locals>.profile": "a profiler callback: sys.setprofile "
    "calls it, and this pass records only sys.settrace calls",
    "repro.apps.sip.server:SipServer.stop": "lifecycle hook: every run ends with the simulation",
    "repro.apps.streaming.server:StreamingServer.stop": "lifecycle hook: every run ends with "
    "the simulation",
}

Key = Tuple[str, int, str]   # (path under src/repro, first line, qualname)


def _functions(code: types.CodeType) -> Iterator[types.CodeType]:
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            # Class bodies have no CO_NEWLOCALS; lambdas and
            # comprehensions are named "<...>".
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined() -> Dict[Key, str]:
    """Every function and method in ``src/repro``, keyed like a call."""
    out: Dict[Key, str] = {}
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, SRC)
            module = "repro." + rel[:-3].replace(os.sep, ".").replace(".__init__", "")
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines = source.splitlines()
            for fn in _functions(compile(source, path, "exec")):
                if "pragma: no cover" not in lines[fn.co_firstlineno - 1]:
                    out[(rel, fn.co_firstlineno, fn.co_qualname)] = f"{module}:{fn.co_qualname}"
    return out


def run_suites() -> Tuple[Set[Key], int]:
    import pytest

    called: Set[Key] = set()
    seen: Set[types.CodeType] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            if code.co_filename.startswith(SRC):
                called.add((os.path.relpath(code.co_filename, SRC),
                            code.co_firstlineno, code.co_qualname))
        return None

    status = 0
    for args in (["-q", "-p", "no:cacheprovider", "tests"],
                 ["-q", "-p", "no:cacheprovider", "benchmarks", "--benchmark-disable"]):
        sys.settrace(tracer)
        try:
            status |= int(pytest.main(args))
        finally:
            sys.settrace(None)
    return called, status


def main() -> int:
    os.chdir(ROOT)
    functions = defined()
    called, status = run_suites()
    uncalled = {functions[key] for key in functions if key not in called}
    new = sorted(uncalled - set(ALLOWED))
    stale = sorted(set(ALLOWED) - uncalled)
    print(f"\nreach-check: {len(functions)} functions in src/repro, "
          f"{len(uncalled)} never called ({len(uncalled) - len(new)} allowed)")
    for name in new:
        print(f"  NOT CALLED: {name}")
    for name in stale:
        print(f"  ALLOWED BUT CALLED (drop it from ALLOWED): {name}")
    if status:
        print(f"  a test run failed (pytest status {status})")
    return 1 if new or stale or status else 0


if __name__ == "__main__":
    sys.exit(main())
