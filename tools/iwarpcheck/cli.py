"""Command-line entry point: ``python -m iwarpcheck [check|coverage|explore]``.

Exit codes match iwarplint's contract: 0 clean, 1 findings, 2
configuration or usage errors (unknown machine, unreadable records
file, malformed waiver manifest, unknown explorer row or schedule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from iwarpcheck import schedules
from iwarpcheck.explore import check_machine
from iwarpcheck.model import MACHINE_NAMES, Finding, load_machines
from iwarpcheck.sanitizer import (
    RecordsError,
    WaiverError,
    coverage_findings,
    coverage_summary,
    load_records,
    load_waivers,
)

DEFAULT_WAIVERS = Path(__file__).resolve().parent / "waivers.txt"

COMMANDS = ("check", "coverage", "explore")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwarpcheck",
        description="Explicit-state model checking for the datagram-iWARP FSMs.",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check",
        help="model-check the four machines",
    )
    check.add_argument(
        "--machine",
        action="append",
        metavar="NAME",
        help=f"restrict to one machine (repeatable; one of {', '.join(MACHINE_NAMES)})",
    )

    coverage = sub.add_parser(
        "coverage",
        help="gate a runtime transition recording against the declared tables",
    )
    coverage.add_argument("records", help="recording written by the test-suite sanitizer")
    coverage.add_argument(
        "--waivers",
        default=str(DEFAULT_WAIVERS),
        metavar="FILE",
        help="waiver manifest (default: tools/iwarpcheck/waivers.txt)",
    )

    explore = sub.add_parser(
        "explore",
        help="run catalogue rows under every bounded fault schedule and check the oracles",
    )
    explore.add_argument(
        "--row",
        action="append",
        metavar="NAME",
        help=f"restrict to one row (repeatable; one of {', '.join(schedules.ROWS)})",
    )
    explore.add_argument(
        "--schedule", metavar="SCHEDULE",
        help="replay one schedule, as a counterexample prints it, on one --row",
    )

    for sub_parser in (check, coverage, explore):
        sub_parser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format on stdout (default: text)",
        )
        sub_parser.add_argument(
            "--output",
            metavar="FILE",
            help="also write the JSON report to FILE",
        )
    return parser


def _report(
    mode: str,
    findings: List[Finding],
    args: argparse.Namespace,
    extra: Optional[Dict[str, object]] = None,
) -> int:
    payload: Dict[str, object] = {
        "tool": "iwarpcheck",
        "mode": mode,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    if extra:
        payload.update(extra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"iwarpcheck: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"iwarpcheck: {mode} clean", file=sys.stderr)
    return 0


def _run_check(args: argparse.Namespace) -> int:
    machines = load_machines()
    selected = list(MACHINE_NAMES)
    if args.machine:
        selected = []
        for name in args.machine:
            if name not in MACHINE_NAMES:
                print(
                    f"iwarpcheck: unknown machine {name!r} "
                    f"(expected one of {', '.join(MACHINE_NAMES)})",
                    file=sys.stderr,
                )
                return 2
            selected.append(name)

    by_name = {machine.name: machine for machine in machines}
    findings: List[Finding] = []
    for name in selected:
        findings.extend(check_machine(by_name[name]))
    return _report("check", findings, args, extra={"machines": selected})


def _run_coverage(args: argparse.Namespace) -> int:
    machines = load_machines()
    try:
        records = load_records(args.records)
        waivers = load_waivers(args.waivers)
    except (RecordsError, WaiverError, OSError) as exc:
        print(f"iwarpcheck: {exc}", file=sys.stderr)
        return 2
    findings = coverage_findings(records, machines, waivers)
    summary = coverage_summary(records, machines, waivers)
    for name, stats in sorted(summary.items()):
        print(
            f"iwarpcheck: {name}: {stats['covered']}/{stats['declared']} "
            f"transitions covered, {stats['waived']} waived",
            file=sys.stderr,
        )
    return _report("coverage", findings, args, extra={"summary": summary})


def _run_explore(args: argparse.Namespace) -> int:
    rows = args.row or list(schedules.ROWS)
    for row in rows:
        if row not in schedules.ROWS:
            print(f"iwarpcheck: {row!r} is not one of {', '.join(schedules.ROWS)}",
                  file=sys.stderr)
            return 2
    if args.schedule is not None:
        if len(rows) != 1:
            print("iwarpcheck: --schedule replays one --row", file=sys.stderr)
            return 2
        try:
            schedule = schedules.parse(args.schedule, rows[0])
        except ValueError as exc:
            print(f"iwarpcheck: bad schedule {args.schedule!r}: {exc}", file=sys.stderr)
            return 2
        runs = [schedules.run_schedule(rows[0], schedule)]
    else:
        runs = (
            run for row in rows
            for run in schedules.explore(row, schedules.MAX_FAULTS, schedules.MAX_FRAMES)
        )
    findings: List[Finding] = []
    composites: Set[Tuple[str, ...]] = set()
    counts: Dict[str, int] = {}
    for run in runs:
        counts[run.row] = counts.get(run.row, 0) + 1
        composites |= run.composites
        findings.extend(run.findings)
    for row, count in counts.items():
        print(f"iwarpcheck: {row}: {count} schedule(s) run", file=sys.stderr)
    return _report("explore", findings, args, extra={
        "runs": counts,
        "composites": sorted("/".join(c) for c in composites),
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or (argv[0] not in COMMANDS and argv[0] not in ("-h", "--help")):
        argv.insert(0, "check")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "coverage":
        return _run_coverage(args)
    if args.command == "explore":
        return _run_explore(args)
    return _run_check(args)


if __name__ == "__main__":
    sys.exit(main())
