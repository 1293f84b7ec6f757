"""iwarpcheck — explicit-state model checking for the protocol FSMs.

Where ``iwarplint`` checks the *source* against the declared transition
tables, iwarpcheck checks the *tables themselves* and the runtime
behaviour of the stack:

* :mod:`iwarpcheck.model` loads the four event-labelled machines (QP,
  TCP, MPA, SCTP) straight from the ``repro`` modules that declare
  them.
* :mod:`iwarpcheck.explore` exhaustively explores each machine:
  unreachable states and states with no path to a terminal.  The
  ``(from, to)`` pair table that ``_set_state`` enforces is derived
  from the event table, so the two cannot disagree.
* :mod:`iwarpcheck.product` builds the cross-layer RC product machine
  (QP x MPA x TCP) under a loss/dup/reorder/close event alphabet and
  checks the declared cross-layer invariants, reporting minimal
  counterexample event traces.
* :mod:`iwarpcheck.sanitizer` is the runtime transition-coverage
  sanitizer: an observer on ``repro.core.fsm`` records every transition
  the test suite takes, and the coverage gate fails on any runtime
  transition absent from the declared tables or any declared transition
  no test exercises (unless waived in the manifest).

Run ``python -m iwarpcheck`` from the repo root (``iwarpcheck.py`` is
the path shim), or ``make verify-fsm`` for the full model-check +
coverage pipeline.
"""

from iwarpcheck.explore import check_machine, event_paths_covering_all_edges
from iwarpcheck.model import Finding, Machine, load_machines
from iwarpcheck.product import ProductMachine, check_product, rc_product
from iwarpcheck.sanitizer import TransitionRecorder, coverage_findings

__all__ = [
    "Finding",
    "Machine",
    "ProductMachine",
    "TransitionRecorder",
    "check_machine",
    "check_product",
    "coverage_findings",
    "event_paths_covering_all_edges",
    "load_machines",
    "rc_product",
]
