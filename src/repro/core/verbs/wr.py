"""Work requests, scatter/gather elements, and work completions.

The verbs-level vocabulary of the stack.  The datagram extensions the
paper specifies (§IV.B item 4) are visible here:

* send-side work requests on UD QPs carry a **destination address**;
* completions carry the **source address and port** of incoming data
  ("the completion queue elements need to be altered to include
  information concerning the source address and port");
* Write-Record completions carry a :class:`~repro.memory.validity.ValidityMap`
  describing which byte ranges of the message landed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from ...memory.sge import Sge, gather, scatter, sge_total  # noqa: F401 (public API)
from ...memory.validity import ValidityMap

Address = Tuple[int, int]

#: Destination host id that floods the fabric (Ethernet broadcast).
#: A UD send addressed to ``multicast_address(port)`` reaches every QP
#: bound to that port on any host — the "broadcast and multicast
#: support" the paper calls an attractive feature of datagrams (§IV.A).
MULTICAST_HOST = -1


def multicast_address(group_port: int) -> Address:
    """The datagram address of a multicast group (a shared UDP port).

    Joining the group is simply creating a UD QP bound to that port
    (``device.create_ud_qp(pd, cq, port=group_port)``); no group-
    management signalling exists, matching UDP multicast's data-plane
    simplicity.  One-sided operations cannot be multicast: steering tags
    are per-device, so Write-Record needs a unicast destination.
    """
    return (MULTICAST_HOST, group_port)


class WrOpcode(Enum):
    SEND = "SEND"
    SEND_SE = "SEND_SE"                  # send with solicited event
    RDMA_WRITE = "RDMA_WRITE"
    RDMA_WRITE_RECORD = "RDMA_WRITE_RECORD"  # the paper's new operation
    RDMA_READ = "RDMA_READ"


class WcStatus(Enum):
    SUCCESS = "SUCCESS"
    LOCAL_LENGTH_ERROR = "LOCAL_LENGTH_ERROR"
    LOCAL_PROTECTION_ERROR = "LOCAL_PROTECTION_ERROR"
    REMOTE_ACCESS_ERROR = "REMOTE_ACCESS_ERROR"
    PARTIAL_MESSAGE = "PARTIAL_MESSAGE"   # UD reassembly timed out (data loss)
    FLUSHED = "FLUSHED"                   # QP went to ERROR with WR queued
    TIMEOUT = "TIMEOUT"                   # reserved for pollers


#: Default ``wr_id``s, numbered across the process rather than per device
#: (ROADMAP item 1).
_wr_ids = itertools.count(1)  # iwarplint: disable=IW404


@dataclass
class SendWR:
    """A send-queue work request."""

    opcode: WrOpcode
    sges: List[Sge] = field(default_factory=list)
    wr_id: int = field(default_factory=_wr_ids.__next__)
    #: UD only: destination (host, port) — the datagram-verbs extension.
    dest: Optional[Address] = None
    #: Tagged ops: remote stag and base tagged offset.
    remote_stag: int = 0
    remote_offset: int = 0
    #: Request a completion (unsignaled sends complete silently).
    signaled: bool = True

    @property
    def length(self) -> int:
        return sge_total(self.sges)


@dataclass
class RecvWR:
    """A receive-queue work request."""

    sges: List[Sge] = field(default_factory=list)
    wr_id: int = field(default_factory=_wr_ids.__next__)

    @property
    def capacity(self) -> int:
        return sge_total(self.sges)


@dataclass
class WorkCompletion:
    """One completion-queue entry."""

    wr_id: int
    opcode: WrOpcode
    status: WcStatus
    byte_len: int = 0
    #: Datagram extension: where the data came from.
    src: Optional[Address] = None
    #: Write-Record: which byte ranges are valid (aggregated map form;
    #: ``validity.ranges()`` yields the per-chunk entries form).
    validity: Optional[ValidityMap] = None
    #: Message id (UD) — lets applications correlate partial messages.
    msg_id: Optional[int] = None
    #: Write-Record: the tagged offset the message's byte 0 landed at —
    #: together with ``validity`` this is the "data chunk location and
    #: size recorded in completion queue" of Fig. 3.
    base_offset: int = 0
    solicited: bool = False

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS
