"""Observability support layer: metrics registry, WR spans, exporters.

Usage from the stack (obs is a support layer — importable anywhere,
imports no stack code): a counting class declares its series once, as
rows over the plain fields it counts, and registers each instance with
its labels:

    from repro.obs import sim_registry

    class QueuePair:
        METRICS = (
            ("verbs.qp.recv_posts", "counter", "recv_posts"),
            ("verbs.qp.posts", "counter", "posts", "op"),  # dict keyed by op
        )

        def __init__(self, device, ...):
            ...
            sim_registry(device.sim).watch(self, {"qp": ..., "host": ...})

Enable per testbed (``build_testbed(..., metrics=True)``) or globally
with ``IWARP_OBS=1``.  See DESIGN.md §8.
"""

from .export import (
    dicts_to_samples,
    dump_tracked,
    merge_samples,
    samples_to_dicts,
    to_json,
    to_json_obj,
    to_prometheus,
)
from .metrics import (
    DEFAULT_BUCKETS,
    METRIC_LAYERS,
    METRIC_NAME_PATTERN,
    Histogram,
    Registry,
    RegistryError,
    Sample,
    default_enabled,
    diff,
    sim_registry,
    validate_name,
)
from .spans import (
    SPAN_KIND,
    STAGES,
    merge_timelines,
    spans,
    stage_sequence,
    wr_span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_LAYERS",
    "METRIC_NAME_PATTERN",
    "SPAN_KIND",
    "STAGES",
    "Histogram",
    "Registry",
    "RegistryError",
    "Sample",
    "default_enabled",
    "dicts_to_samples",
    "diff",
    "dump_tracked",
    "merge_samples",
    "merge_timelines",
    "samples_to_dicts",
    "sim_registry",
    "spans",
    "stage_sequence",
    "to_json",
    "to_json_obj",
    "to_prometheus",
    "validate_name",
    "wr_span",
]
