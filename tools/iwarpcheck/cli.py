"""Command-line entry point: ``python -m iwarpcheck explore``.

Exit codes match iwarplint's contract: 0 clean, 1 findings, 2 usage
errors (no command, an unknown explorer row or a malformed schedule).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from iwarpcheck import schedules
from iwarpcheck.schedules import Finding


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwarpcheck",
        description="Bounded fault-schedule explorer for the live datagram-iWARP stack.",
    )
    sub = parser.add_subparsers(dest="command")
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
    explore.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    explore.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    return parser


def _report(
    findings: List[Finding], args: argparse.Namespace, extra: Dict[str, object]
) -> int:
    payload: Dict[str, object] = {
        "tool": "iwarpcheck",
        "mode": "explore",
        "count": len(findings),
        "findings": [asdict(finding) for finding in findings],
        **extra,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(f"{finding.machine}: {finding.rule} {finding.message}")
    if findings:
        print(f"iwarpcheck: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("iwarpcheck: explore clean", file=sys.stderr)
    return 0


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
    return _report(findings, args, {
        "runs": counts,
        "composites": sorted("/".join(c) for c in composites),
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.command != "explore":
        parser.print_usage(sys.stderr)
        return 2
    return _run_explore(args)


if __name__ == "__main__":
    sys.exit(main())
