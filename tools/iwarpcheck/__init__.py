"""iwarpcheck — a bounded fault-schedule explorer for the live stack.

Where ``iwarplint`` checks the *source* against the declared transition
tables, iwarpcheck checks how the running stack behaves under faults:
:mod:`iwarpcheck.schedules` runs short scenario-catalogue rows under
every schedule of up to k faults (drop, duplicate, delay or corrupt a
frame; reset, close or drain a QP) over their first N frames, and
checks the cross-layer oracles on every run: the RC (QP, MPA, TCP)
coupling, RC receive flushing, RD exactly-once delivery, Write-Record
validity, UD source addresses and send-queue conservation (each send
completed once, SUCCESS only when earned).  The row name and the
schedule replay a counterexample.

Run ``python -m iwarpcheck explore`` from the repo root
(``iwarpcheck.py`` is the path shim), or ``make explore`` for one
process per row.
"""
