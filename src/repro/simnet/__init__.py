"""Discrete-event network simulator: the testbed substrate.

Stands in for the paper's two-node 10-GigE platform: an event engine
with integer-nanosecond time, serialized per-host CPUs (the software
iWARP stack is CPU-bound), NICs with FIFO egress queues where loss is
injected ``tc``-style, a store-and-forward switch, and full-duplex
links.
"""

from .cpu import CpuResource
from .engine import MS, NS, SEC, US, Event, Future, Mailbox, Process, SimulationError, Simulator
from .faults import DelayJitter, Duplicate, FaultModel, FaultPipeline, LinkFlap, Reorder, seeded_chaos
from .host import Host
from .link import Link
from .loss import BernoulliLoss, BitErrorModel, ExplicitLoss, GilbertElliottLoss, LossModel, NoLoss, PatternLoss
from .nic import NicPort, cable
from .packet import BROADCAST, ETH_MTU, ETH_OVERHEAD, Frame, serialization_ns
from .switch import Switch
from .topology import Testbed, build_testbed
from .trace import TraceRecord, Tracer

__all__ = [
    "BROADCAST", "BernoulliLoss", "BitErrorModel", "CpuResource",
    "DelayJitter", "Duplicate", "ETH_MTU",
    "ETH_OVERHEAD", "Event", "ExplicitLoss", "FaultModel", "FaultPipeline",
    "Frame", "Future",
    "GilbertElliottLoss", "Host", "Link", "LinkFlap", "LossModel", "MS", "Mailbox", "NS",
    "NicPort", "NoLoss", "PatternLoss", "Process", "Reorder", "SEC",
    "SimulationError",
    "Simulator", "Switch", "Testbed", "TraceRecord", "Tracer",
    "US", "build_testbed", "cable", "seeded_chaos", "serialization_ns",
]
