"""iwarpcheck self-tests: every rule code fires exactly where a seeded
fixture plants a violation (with the promised counterexample trace),
stays silent on the real machines, and the coverage sanitizer + waiver
manifest behave per DESIGN §7.  The fault-schedule explorer has its own
tests in ``test_iwarpcheck_schedules.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from iwarpcheck.explore import (  # noqa: E402
    check_machine,
    event_paths_covering_all_edges,
    reachable_paths,
)
from iwarpcheck.model import MACHINE_NAMES, Machine, load_machines  # noqa: E402
from iwarpcheck.sanitizer import (  # noqa: E402
    RecordsError,
    TransitionRecorder,
    WaiverError,
    coverage_findings,
    coverage_summary,
    load_records,
    parse_waivers,
)

from repro.core import fsm as fsm_module  # noqa: E402
from repro.core.fsm import transition  # noqa: E402


def make_machine(events, initial="A", terminals=("C",), name="M"):
    return Machine(
        name=name,
        initial=initial,
        terminals=frozenset(terminals),
        events=events,
    )


def codes(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# Single-machine rules (IC1xx)
# ---------------------------------------------------------------------------


def test_pair_table_is_derived_from_events():
    machine = make_machine({("A", "go"): "B", ("A", "alt"): "C", ("B", "fin"): "C"})
    assert machine.table == {
        "A": frozenset({"B", "C"}), "B": frozenset({"C"}), "C": frozenset(),
    }
    assert machine.states == {"A", "B", "C"}
    assert machine.declared_pairs() == {("A", "B"), ("A", "C"), ("B", "C")}


def test_self_loop_arc_rejected_at_construction():
    # A same-state move is a silent no-op at runtime, so the coverage
    # sanitizer could never observe the arc.
    with pytest.raises(ValueError, match="self-loop"):
        make_machine({("A", "go"): "B", ("B", "loop"): "B"})


def test_ic104_unreachable_state():
    machine = make_machine(
        {("A", "go"): "B", ("B", "fin"): "C", ("D", "leak"): "C"},
    )
    findings = check_machine(machine)
    assert codes(findings) == ["IC104"]
    assert "state D" in findings[0].message


def test_ic105_no_path_to_terminal():
    machine = make_machine({("A", "go"): "B", ("A", "alt"): "C"})
    findings = check_machine(machine)
    assert codes(findings) == ["IC105"]
    assert findings[0].trace == (("A", "go", "B"),)


def test_reachable_paths_are_minimal():
    machine = make_machine(
        {("A", "go"): "B", ("B", "fin"): "C", ("A", "skip"): "B"},
        terminals=("C",),
    )
    paths = reachable_paths(machine)
    assert paths["A"] == []
    assert len(paths["C"]) == 2


def test_covering_paths_cover_every_event_arc():
    machine = make_machine({("A", "go"): "B", ("B", "fin"): "C"})
    paths = event_paths_covering_all_edges(machine)
    last_arcs = {path[-1] for path in paths}
    assert last_arcs == {("A", "go", "B"), ("B", "fin", "C")}


def test_real_machines_are_clean():
    for machine in load_machines():
        assert check_machine(machine) == [], machine.name


# ---------------------------------------------------------------------------
# Runtime sanitizer (IC3xx)
# ---------------------------------------------------------------------------


class _Box:
    def __init__(self, state):
        self.state = state


def test_recorder_observes_shared_transition_helper():
    # Detach any session-wide observers (the IWARP_FSM_COVERAGE
    # recorder, if the suite runs under ``make verify-fsm``) so this
    # test's toy "FIX" machine never leaks into the real recording.
    saved = fsm_module._observers[:]
    del fsm_module._observers[:]
    recorder = TransitionRecorder()
    try:
        recorder.install()
        box = _Box("A")
        table = {"A": frozenset({"B"}), "B": frozenset({"A"})}
        transition(box, "FIX", table, "B", ValueError)
        transition(box, "FIX", table, "B", ValueError)  # same-state no-op
        transition(box, "FIX", table, "A", ValueError)
        recorder.uninstall()
        assert recorder.counts == {("FIX", "A", "B"): 1, ("FIX", "B", "A"): 1}
        # Uninstalled: further transitions are invisible.
        transition(_Box("A"), "FIX", {"A": frozenset({"B"})}, "B", ValueError)
        assert sum(recorder.counts.values()) == 2
    finally:
        fsm_module._observers[:] = saved


def test_records_round_trip(tmp_path):
    recorder = TransitionRecorder()
    recorder("QP", "RESET", "INIT", None)
    recorder("QP", "RESET", "INIT", None)
    path = tmp_path / "records.json"
    recorder.write(str(path))
    assert load_records(str(path)) == {("QP", "RESET", "INIT"): 2}


def test_malformed_records_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99}')
    with pytest.raises(RecordsError):
        load_records(str(path))


def test_waiver_parsing():
    waivers = parse_waivers(
        "# comment\n\nQP RESET -> INIT: constructor-only path\n"
    )
    assert len(waivers) == 1
    assert waivers[0].key == ("QP", "RESET", "INIT")
    assert waivers[0].reason == "constructor-only path"
    with pytest.raises(WaiverError, match="malformed"):
        parse_waivers("QP RESET INIT missing arrow\n")


FIX = make_machine({("A", "go"): "B", ("B", "fin"): "C"}, name="FIX")


def test_ic301_undeclared_runtime_transition():
    findings = coverage_findings(
        {("FIX", "A", "B"): 1, ("FIX", "B", "C"): 1, ("FIX", "A", "C"): 1}, [FIX]
    )
    assert codes(findings) == ["IC301"]
    assert "A -> C" in findings[0].message


def test_ic302_unexercised_transition_and_waiver():
    records = {("FIX", "A", "B"): 1}
    findings = coverage_findings(records, [FIX])
    assert codes(findings) == ["IC302"]
    assert "B -> C" in findings[0].message
    waivers = parse_waivers("FIX B -> C: teardown path needs fault injection\n")
    assert coverage_findings(records, [FIX], waivers) == []


def test_ic303_waiver_for_undeclared_transition():
    waivers = parse_waivers("FIX C -> A: no such transition\n")
    findings = coverage_findings(
        {("FIX", "A", "B"): 1, ("FIX", "B", "C"): 1}, [FIX], waivers
    )
    assert codes(findings) == ["IC303"]


def test_ic304_stale_waiver():
    waivers = parse_waivers("FIX B -> C: stale\n")
    findings = coverage_findings(
        {("FIX", "A", "B"): 1, ("FIX", "B", "C"): 1}, [FIX], waivers
    )
    assert codes(findings) == ["IC304"]


def test_coverage_summary_counts():
    waivers = parse_waivers("FIX B -> C: pending\n")
    summary = coverage_summary({("FIX", "A", "B"): 1}, [FIX], waivers)
    assert summary == {"FIX": {"declared": 2, "covered": 1, "waived": 1}}


# ---------------------------------------------------------------------------
# CLI contract: exit codes and formats
# ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "iwarpcheck", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_check_clean_json():
    proc = run_cli("--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["tool"] == "iwarpcheck"
    assert payload["count"] == 0
    assert payload["machines"] == list(MACHINE_NAMES)


def test_cli_unknown_machine_is_usage_error():
    proc = run_cli("check", "--machine", "NOPE")
    assert proc.returncode == 2
    assert "unknown machine" in proc.stderr


def test_cli_missing_records_is_usage_error(tmp_path):
    proc = run_cli("coverage", str(tmp_path / "missing.json"))
    assert proc.returncode == 2


def _write_records(path, skip=()):
    transitions = []
    for machine in load_machines():
        for src, dst in sorted(machine.declared_pairs()):
            if (machine.name, src, dst) in skip:
                continue
            transitions.append(
                {"machine": machine.name, "from": src, "to": dst, "count": 1}
            )
    path.write_text(json.dumps({"version": 1, "transitions": transitions}))


def test_cli_coverage_full_recording_passes(tmp_path):
    records = tmp_path / "records.json"
    _write_records(records)
    report = tmp_path / "report.json"
    proc = run_cli("coverage", str(records), "--output", str(report))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(report.read_text())
    assert payload["count"] == 0
    for stats in payload["summary"].values():
        assert stats["covered"] == stats["declared"]


def test_cli_coverage_gap_fails_with_ic302(tmp_path):
    records = tmp_path / "records.json"
    _write_records(records, skip={("SCTP", "ESTABLISHED", "SHUTDOWN_SENT")})
    proc = run_cli("coverage", str(records), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert codes_from_payload(payload) == ["IC302"]


def codes_from_payload(payload):
    return [finding["rule"] for finding in payload["findings"]]


def test_cli_check_writes_output_report(tmp_path):
    report = tmp_path / "model-check.json"
    proc = run_cli("--output", str(report))
    assert proc.returncode == 0
    payload = json.loads(report.read_text())
    assert payload["mode"] == "check"
    assert payload["findings"] == []
