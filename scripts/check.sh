#!/usr/bin/env bash
# Static-analysis gate: ruff + mypy + iwarplint.
#
# iwarplint is stdlib-only and always runs. ruff and
# mypy run when installed (pip install -e '.[dev]') and are skipped
# with a notice otherwise, so the gate works in minimal containers too.
# Exit is nonzero if any tool that ran found a problem.

set -u
cd "$(dirname "$0")/.."

failed=0

run() {
    echo "==> $*"
    "$@" || failed=1
}

if command -v ruff >/dev/null 2>&1; then
    run ruff check src tests benchmarks
else
    echo "==> ruff: not installed, skipping (pip install -e '.[dev]')"
fi

if command -v mypy >/dev/null 2>&1; then
    run mypy src/repro
else
    echo "==> mypy: not installed, skipping (pip install -e '.[dev]')"
fi

run python -m iwarplint src/

exit "$failed"
