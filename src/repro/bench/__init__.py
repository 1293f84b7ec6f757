"""Benchmark harnesses reproducing the paper's evaluation."""

from .harness import MODES, POLL_TIMEOUT_NS, BenchError, VerbsEndpointPair
from .report import ComparisonReport, format_table, load_json, print_table, save_json

__all__ = [
    "BenchError", "ComparisonReport", "MODES", "POLL_TIMEOUT_NS",
    "VerbsEndpointPair", "format_table", "load_json", "print_table", "save_json",
]
