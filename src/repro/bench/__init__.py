"""Benchmark harnesses reproducing the paper's evaluation."""

from .harness import MODES, POLL_TIMEOUT_NS, BenchError, VerbsEndpointPair
from .report import load_json, save_json

__all__ = [
    "BenchError", "MODES", "POLL_TIMEOUT_NS", "VerbsEndpointPair", "load_json", "save_json",
]
