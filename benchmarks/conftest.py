"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark module regenerates one figure of the paper's evaluation:
it runs the simulated experiment once (simulations are deterministic, so
``benchmark.pedantic`` with a single round), prints the series the
figure plots next to the paper's anchor values, and writes the raw data
to ``results/<figure>.json`` for EXPERIMENTS.md.
"""

from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

