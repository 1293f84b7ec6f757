"""iwarpcheck — model checking for the protocol FSMs, and a bounded
fault-schedule explorer for the live stack.

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
* :mod:`iwarpcheck.schedules` runs short scenario-catalogue rows on the
  real stack under every schedule of up to k faults (drop, duplicate,
  delay or corrupt a frame; reset, close or drain a QP) over their
  first N frames, and checks the cross-layer oracles on every run: the
  RC (QP, MPA, TCP) coupling, RC receive flushing, RD exactly-once
  delivery, Write-Record validity, UD source addresses and send-queue
  conservation (each send completed once, SUCCESS only when earned).  The row
  name and the schedule replay a counterexample.
* :mod:`iwarpcheck.sanitizer` is the runtime transition-coverage
  sanitizer: an observer on ``repro.core.fsm`` records every transition
  the test suite takes, and the coverage gate fails on any runtime
  transition absent from the declared tables or any declared transition
  no test exercises (unless waived in the manifest).

Run ``python -m iwarpcheck`` from the repo root (``iwarpcheck.py`` is
the path shim), ``python -m iwarpcheck explore`` (``make explore``) for
the fault schedules, or ``make verify-fsm`` for the full model-check +
coverage pipeline.
"""

from iwarpcheck.explore import check_machine, event_paths_covering_all_edges
from iwarpcheck.model import Finding, Machine, load_machines
from iwarpcheck.sanitizer import TransitionRecorder, coverage_findings

__all__ = [
    "Finding",
    "Machine",
    "TransitionRecorder",
    "check_machine",
    "coverage_findings",
    "event_paths_covering_all_edges",
    "load_machines",
]
