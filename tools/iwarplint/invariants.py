"""Declarative invariants checked by iwarplint.

This module is pure data: the layer order and import allowlist, where
each guarded state machine lives, the wire-format manifest, and the
determinism ban lists.  The rule implementations in
:mod:`iwarplint.rules` interpret it; changing an invariant is a one-line
edit here.  The FSM transition tables are not copied here: the FSM rule
reads each one from the literal in the module that declares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Layering (IW1xx)
# ---------------------------------------------------------------------------
#
# Stack order from the paper (Fig. 1 / section IV): applications and the
# socket interface sit on verbs, verbs on RDMAP, RDMAP on DDP, DDP on MPA
# (stream mode only), MPA on the transport, transports on the simulated
# network.  ``memory`` and ``models`` are support libraries usable from
# any layer.  Lower rank = higher in the stack.

LAYER_RANK: Dict[str, int] = {
    "apps": 0,
    "bench": 0,
    "socketif": 1,
    "verbs": 2,
    "rdmap": 3,
    "ddp": 4,
    "mpa": 5,
    "transport": 6,
    "simnet": 7,
}

SUPPORT_LAYERS: FrozenSet[str] = frozenset({"memory", "models", "obs"})

# Longest-prefix match from dotted module name to layer.
LAYER_OF_PREFIX: Sequence[Tuple[str, str]] = (
    ("repro.apps", "apps"),
    ("repro.bench", "bench"),
    ("repro.core.socketif", "socketif"),
    ("repro.core.verbs", "verbs"),
    ("repro.core.rdmap", "rdmap"),
    ("repro.core.ddp", "ddp"),
    ("repro.core.mpa", "mpa"),
    ("repro.transport", "transport"),
    ("repro.simnet", "simnet"),
    ("repro.memory", "memory"),
    ("repro.models", "models"),
    ("repro.obs", "obs"),
)

# Sanctioned non-adjacent edges: (source layer, target layer) -> allowed
# target-module prefixes, or None for "any module in that layer".
# Anything not adjacent-downward, same-layer, support-target, or listed
# here is a violation.
SANCTIONED_EDGES: Dict[Tuple[str, str], Optional[FrozenSet[str]]] = {
    # Harness/demo layers drive the whole stack directly.
    ("apps", "verbs"): None,
    ("apps", "transport"): frozenset({"repro.transport.stacks"}),
    ("apps", "simnet"): None,
    ("bench", "verbs"): None,
    ("bench", "transport"): frozenset({"repro.transport.stacks"}),
    ("bench", "simnet"): None,
    # The socket interface builds on verbs but also needs the assembled
    # NetStack facade and the event loop.
    ("socketif", "transport"): frozenset({"repro.transport.stacks"}),
    ("socketif", "simnet"): frozenset({"repro.simnet.engine"}),
    # Datagram iWARP (paper section IV.B): UD QPs frame DDP segments
    # straight onto UDP/RUDP, bypassing MPA.  This is THE sanctioned
    # layer skip the paper is about; verbs also owns connection setup,
    # so it touches MPA and DDP directly.
    ("verbs", "ddp"): None,
    ("verbs", "mpa"): None,
    ("verbs", "transport"): None,
    ("verbs", "simnet"): frozenset({"repro.simnet.engine"}),
    # Protocol engines may use the event-loop primitives, nothing else
    # from simnet (hosts/NICs/topology belong to the harness).
    ("rdmap", "simnet"): frozenset({"repro.simnet.engine"}),
    ("mpa", "simnet"): frozenset({"repro.simnet.engine"}),
    # RDMAP completes verbs-level work requests; it may import the WR/WC
    # vocabulary (plain dataclasses), never QP/CQ machinery.
    ("rdmap", "verbs"): frozenset({"repro.core.verbs.wr"}),
}


def layer_of(module: str) -> Optional[str]:
    """Layer for a dotted module name, or None if unlayered."""
    best: Optional[str] = None
    best_len = -1
    for prefix, layer in LAYER_OF_PREFIX:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


# ---------------------------------------------------------------------------
# FSM conformance (IW2xx)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FsmSpec:
    """One guarded state machine: where it lives and how it is declared.

    What the machine permits is read from the owning module itself: its
    ``table_name`` literal, an event table ``(state, event) -> state``
    whose ``(from, to)`` projection is what ``helper`` enforces.
    """

    module: str  # dotted module owning the FSM
    attr: str  # instance attribute holding the state ("state")
    helper: str  # the validated setter every write must go through
    table_name: str  # module-level event-table literal (IW204 if unreadable)
    initial: FrozenSet[str]  # states assignable directly in __init__


FSM_SPECS: Sequence[FsmSpec] = (
    FsmSpec(
        module="repro.core.verbs.qp",
        attr="state",
        helper="_set_state",
        table_name="QP_EVENT_TRANSITIONS",
        initial=frozenset({"RESET"}),
    ),
    FsmSpec(
        module="repro.transport.tcp.connection",
        attr="state",
        helper="_set_state",
        table_name="TCP_EVENT_TRANSITIONS",
        initial=frozenset({"CLOSED"}),
    ),
    FsmSpec(
        module="repro.core.mpa.connection",
        attr="state",
        helper="_set_state",
        table_name="MPA_EVENT_TRANSITIONS",
        initial=frozenset({"NEGOTIATING"}),
    ),
    FsmSpec(
        module="repro.transport.sctp",
        attr="state",
        helper="_set_state",
        table_name="SCTP_EVENT_TRANSITIONS",
        initial=frozenset({"CLOSED"}),
    ),
)


# ---------------------------------------------------------------------------
# Wire format (IW3xx)
# ---------------------------------------------------------------------------
#
# Every struct format string appearing in a watched module must be listed
# here with the byte length the header requires (RFC 5040/5041/5044 plus
# the paper's UD extensions).  ``struct.calcsize`` of the format must
# equal the declared size, or the manifest has drifted from the code.

WIRE_WATCHED_PREFIXES: Sequence[str] = ("repro.core", "repro.transport")

WIRE_FORMATS: Dict[str, Dict[str, int]] = {
    "repro.core.ddp.headers": {
        "!BB": 2,  # DDP control: flags/opcode (RFC 5041 hdr head)
        "!IQ": 12,  # tagged: STag + TO
        "!III": 12,  # untagged: QN, MSN, MO
        "!QQQ": 24,  # UD extension: msg id, length, offset (paper IV.B)
        "!IQIIQ": 28,  # RDMA Read Request supplement
    },
    "repro.core.mpa.crc": {
        "!I": 4,  # CRC32c trailer (RFC 5044)
    },
    "repro.core.mpa.fpdu": {
        "!H": 2,  # MPA ULPDU length prefix
        "!I": 4,  # CRC trailer re-read at the receiver
    },
    "repro.core.mpa.connection": {
        "!HBB4x": 8,  # private negotiation frame: magic, type, flags, pad
    },
    "repro.core.mpa.markers": {
        "!HH": 4,  # marker: reserved + FPDU back-pointer
    },
    "repro.core.socketif.interface": {
        "!BIQ": 13,  # ring advertisement reply: type, STag, ring size
        "!B": 1,  # message-type discriminator
    },
    "repro.transport.rudp": {
        "!BQ": 9,  # RUDP header: kind + 64-bit sequence number
        "!Q": 8,  # ACK echo: seq whose arrival triggered the ACK
        "!QQ": 16,  # SACK range: inclusive [start, end]
        "!BQQ": 17,  # SACK-less ACK fast path: header + echo in one pack
    },
}


# ---------------------------------------------------------------------------
# Determinism (IW4xx)
# ---------------------------------------------------------------------------

DETERMINISM_SCOPES: Sequence[str] = (
    "repro.simnet", "repro.transport", "repro.core", "repro.obs",
)

# Wall-clock and environment entropy: (module, function) pairs.
WALL_CLOCK_CALLS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("os", "getrandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

# Modules whose every attribute use is entropy (no seeded mode exists).
ENTROPY_MODULES: FrozenSet[str] = frozenset({"secrets"})

# The one sanctioned randomness pattern: an explicitly seeded
# random.Random(seed) instance.  Everything else on the module-level
# random API shares hidden global state and is banned.
SEEDED_RNG_CLASS = "Random"

# Builtins through which iterating a set is order-insensitive.
ORDER_INSENSITIVE_WRAPPERS: FrozenSet[str] = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)


# ---------------------------------------------------------------------------
# Metric naming (IW5xx)
# ---------------------------------------------------------------------------
#
# Mirrors repro.obs.metrics: every metric name in a declared ``METRICS``
# table must follow ``layer.component.name`` — at least three lowercase
# dot-separated segments, first segment a known layer.  The runtime
# raises RegistryError when a table is watched; IW501 catches the
# literal statically, before any test has to build the object.

METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$"

METRIC_LAYERS: FrozenSet[str] = frozenset(
    {
        "apps", "bench", "socketif", "verbs", "rdmap", "ddp", "mpa",
        "transport", "simnet", "memory", "models", "obs",
    }
)

#: The class attribute holding a declared series table.
METRIC_TABLE = "METRICS"
