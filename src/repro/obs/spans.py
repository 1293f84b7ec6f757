"""WR-lifecycle spans layered on the simnet :class:`Tracer`.

A *span* is one sim-timestamped stage in the life of a work request:

    post → segment → wire → (retransmit)* → delivery → cqe

Each stage is recorded as a ``wr.span`` event on the host's
``wr_tracer`` — the same append-only :class:`repro.simnet.trace.Tracer`
the tests already use for frame-level events, so spans inherit its
timestamping and cost-free semantics.  When no tracer is attached
(``host.wr_tracer is None``, the default) :func:`wr_span` records
nothing, but a call still builds its keyword dict.  The per-message
sites (post, segment, wire, delivery, cqe) therefore test
``host.wr_tracer is not None`` themselves and call :func:`wr_span` only
then; the cold retransmit sites call it unconditionally.

Spans are independent of the metrics registry: tracing is opt-in per
host (attach a Tracer), metrics are opt-in per simulator (enable the
registry); neither affects simulated time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: The Tracer event kind every span is recorded under.
SPAN_KIND = "wr.span"

#: The stage taxonomy, in lifecycle order (DESIGN.md §8).
STAGES: Tuple[str, ...] = (
    "post",        # verbs accepted the WR (qp.post_send / post_recv)
    "segment",     # RDMAP/DDP cut the message into LLP segments
    "wire",        # a segment handed to the LLP for transmission
    "retransmit",  # the LLP resent a segment (fields: proto, cause, seq)
    "delivery",    # RDMAP received/placed a segment at the sink
    "cqe",         # a completion was pushed (fields: queue, status)
)


def wr_span(host: Any, stage: str, **fields: Any) -> None:
    """Record one lifecycle stage on ``host``'s WR tracer, if attached."""
    tracer = getattr(host, "wr_tracer", None)
    if tracer is not None:
        tracer.record(SPAN_KIND, stage=stage, **fields)


def spans(tracer: Any, **match: Any) -> List[Any]:
    """All ``wr.span`` trace records on ``tracer`` whose fields equal
    ``match`` (returns :class:`repro.simnet.trace.TraceRecord` objects)."""
    return tracer.select(SPAN_KIND, **match)


def stage_sequence(tracer: Any, **match: Any) -> List[str]:
    """Just the ordered stage names — what golden span tests assert on."""
    return [rec.fields["stage"] for rec in spans(tracer, **match)]


def merge_timelines(*tracers: Any, match: Optional[Dict[str, Any]] = None) -> List[Any]:
    """Spans from several hosts' tracers merged into one sim-time order.

    Useful when source and sink record on different hosts: the sender
    logs post/segment/wire/retransmit, the receiver delivery/cqe.
    """
    fields = match or {}
    out: List[Any] = []
    for tracer in tracers:
        out.extend(spans(tracer, **fields))
    out.sort(key=lambda rec: rec.time)
    return out
