"""Verbs interface: devices, PDs, memory registration, QPs, CQs, WRs."""

from .cq import CompletionQueue, CqError
from .device import DEFAULT_RC_MULPDU, DeviceError, RcListener, RnicDevice
from .pool import ReceivePool
from .qp import ERROR, QpError, QueuePair, RcQp, RESET, RTS, UdQp
from .wr import (
    Address, MULTICAST_HOST, RecvWR, SendWR, Sge, WcStatus, WorkCompletion,
    WrOpcode, gather, multicast_address, scatter, sge_total,
)

__all__ = [
    "Address", "CompletionQueue", "CqError", "DEFAULT_RC_MULPDU",
    "DeviceError", "ERROR", "MULTICAST_HOST", "QpError", "QueuePair",
    "RESET", "RTS", "multicast_address",
    "RcListener", "RcQp", "ReceivePool", "RecvWR", "RnicDevice", "SendWR",
    "Sge", "UdQp",
    "WcStatus", "WorkCompletion", "WrOpcode", "gather", "scatter",
    "sge_total",
]
