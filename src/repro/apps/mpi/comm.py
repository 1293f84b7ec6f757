"""MPI-flavoured message passing over datagram-iWARP.

The paper closes with: "We would also like to extend this work by
creating an interface to allow MPI to take advantage of the new RDMA
Write-Record over datagram-iWARP" (§VII), building on the send/recv
datagram-iWARP MPI of [22].  This module implements that extension as a
small mpi4py-shaped interface:

* every rank owns a reliable-datagram (RD) QP — MPI requires reliable
  delivery, and the RD LLP provides it without connections, preserving
  the memory-scalability story;
* **eager protocol**: messages up to the eager threshold travel as
  tagged-header send/recv datagrams;
* **rendezvous protocol**: larger messages use RDMA Write-Record — the
  receiver advertises the matched buffer's steering tag, the sender
  Write-Records straight into it, and the arrival record doubles as the
  completion notification (no final ACK message needed);
* collectives (barrier, bcast, allreduce) built from point-to-point,
  using the classic dissemination / binomial-tree / recursive-doubling
  algorithms.

API style follows mpi4py's lowercase methods: process-style code yields
the returned futures (``data = yield comm.recv(src, tag)``).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ...core.verbs import ReceivePool, RnicDevice, SendWR, Sge, WorkCompletion
from ...core.verbs.wr import WR_RDMA_WRITE_RECORD, WR_SEND, WrOpcode
from ...memory.region import Access, MemoryRegion
from ...simnet.engine import Future, MS, Simulator
from ...simnet.topology import Testbed, build_testbed
from ...transport.stacks import install_stacks

ANY_SOURCE = -1
ANY_TAG = -1

# Wire header on every MPI message: kind, source rank, tag, length.
_HDR = struct.Struct("!BiiQ")
_KIND_EAGER = 1
_KIND_RTS = 2      # rendezvous request-to-send
_KIND_CTS = 3      # clear-to-send: carries the sink stag + offset
_CTS = struct.Struct("!BiiQIQ")  # kind, src, tag, length, stag, offset

#: Messages at or below this ride the eager path.
EAGER_THRESHOLD = 16 * 1024


class MpiError(Exception):
    pass


class Communicator:
    """One rank's endpoint (think ``MPI.COMM_WORLD`` from that rank)."""

    MPI_BASE_PORT = 11000

    def __init__(self, world: "MpiWorld", rank: int, device: RnicDevice):
        self.world = world
        self.rank = rank
        self.device = device
        self.sim: Simulator = device.sim
        self.pd = device.alloc_pd()
        self.qp = device.create_ud_qp(
            self.pd, device.create_cq(depth=1 << 14), port=self.MPI_BASE_PORT + rank,
            reliable=True,
        )
        self.pool = ReceivePool(self.qp, 64, EAGER_THRESHOLD + _HDR.size, self._handle_wc)
        # Matching state.
        self._unexpected: Deque[Tuple[int, int, bytes]] = deque()  # (src, tag, data)
        self._posted: Deque[dict] = deque()
        # Rendezvous FIFOs: payloads by (dest, tag) awaiting their CTS,
        # and sinks by source rank, whose Write-Records RD delivers in
        # the order its CTSs asked for them.
        self._rendezvous_payloads: Dict[Tuple[int, int], Deque[bytes]] = {}
        self._rendezvous_sinks: Dict[int, Deque[Tuple[int, MemoryRegion]]] = {}

    @property
    def size(self) -> int:
        return self.world.size

    def _addr(self, rank: int) -> Tuple[int, int]:
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} outside world of {self.size}")
        return (rank, self.MPI_BASE_PORT + rank)

    # ------------------------------------------------------------------
    # Progress engine
    # ------------------------------------------------------------------

    def _handle_wc(self, wc: WorkCompletion, mr: Optional[MemoryRegion]) -> None:
        if wc.opcode is WR_RDMA_WRITE_RECORD:
            if wc.ok:
                self._finish_rendezvous(wc)
            return
        if mr is not None and wc.ok and wc.byte_len >= 1:
            kind = mr.view(0, 1)[0]
            if kind == _KIND_EAGER:
                _k, src, tag, length = _HDR.unpack(bytes(mr.view(0, _HDR.size)))
                data = bytes(mr.view(_HDR.size, length))
                self._deliver(src, tag, data)
            elif kind == _KIND_RTS:
                _k, src, tag, length = _HDR.unpack(bytes(mr.view(0, _HDR.size)))
                self._on_rts(src, tag, length)
            elif kind == _KIND_CTS:
                (_k, dst, tag, length, stag, offset) = _CTS.unpack(
                    bytes(mr.view(0, _CTS.size))
                )
                self._on_cts(dst, tag, length, stag, offset)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def _deliver(self, src: int, tag: int, data: bytes) -> None:
        for waiter in list(self._posted):
            if waiter["future"].done:
                self._posted.remove(waiter)
                continue
            if self._matches(waiter, src, tag):
                self._posted.remove(waiter)
                waiter["future"].set_result((data, src, tag))
                return
        self._unexpected.append((src, tag, data))

    @staticmethod
    def _matches(waiter: dict, src: int, tag: int) -> bool:
        return (waiter["source"] in (ANY_SOURCE, src)
                and waiter["tag"] in (ANY_TAG, tag))

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def send(self, data: bytes, dest: int, tag: int = 0) -> None:
        """Non-blocking from the caller's perspective; RD guarantees
        delivery.  Large messages switch to Write-Record rendezvous."""
        data = bytes(data)
        if len(data) <= EAGER_THRESHOLD:
            payload = _HDR.pack(_KIND_EAGER, self.rank, tag, len(data)) + data
            self._post_send_bytes(payload, dest)
            return
        # Rendezvous: announce, queue the payload until its CTS.
        self._rendezvous_payloads.setdefault((dest, tag), deque()).append(data)
        self._post_send_bytes(
            _HDR.pack(_KIND_RTS, self.rank, tag, len(data)), dest
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Future:
        """Future resolving to ``(data, src, tag)``."""
        fut = self.sim.future()
        for item in list(self._unexpected):
            src, t, data = item
            if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, t)):
                self._unexpected.remove(item)
                fut.set_result((data, src, t))
                return fut
        self._posted.append({"future": fut, "source": source, "tag": tag})
        return fut

    def sendrecv(self, data: bytes, peer: int, tag: int = 0) -> Future:
        self.send(data, peer, tag)
        return self.recv(peer, tag)

    def _post_send_bytes(self, payload: bytes, dest: int,
                         opcode: WrOpcode = WR_SEND, **remote: int) -> None:
        """Post ``payload`` from a region registered for this one WR.
        The WR's payload is gathered as it is posted, so the region is
        deregistered at once (which charges nothing)."""
        mr = self.device.reg_mr(bytearray(payload), Access.local_only(), self.pd)
        self.qp.post_send(SendWR(
            opcode=opcode, sges=[Sge(mr)], dest=self._addr(dest),
            signaled=False, **remote,
        ))
        self.device.dereg_mr(mr)

    # -- rendezvous ---------------------------------------------------------

    def _on_rts(self, src: int, tag: int, length: int) -> None:
        """Register a sink for the announced message and send CTS."""
        sink = self.device.reg_mr(length, Access.remote_write(), self.pd)
        self._rendezvous_sinks.setdefault(src, deque()).append((tag, sink))
        cts = _CTS.pack(_KIND_CTS, self.rank, tag, length, sink.stag, 0)
        self._post_send_bytes(cts, src)

    def _on_cts(self, _dst: int, tag: int, length: int, stag: int, offset: int) -> None:
        """Receiver is ready: Write-Record the oldest queued payload."""
        queued = self._rendezvous_payloads.get((_dst, tag))
        if not queued:
            return
        self._post_send_bytes(queued.popleft(), _dst, WR_RDMA_WRITE_RECORD,
                              remote_stag=stag, remote_offset=offset)

    def _finish_rendezvous(self, wc: WorkCompletion) -> None:
        """The Write-Record arrival record IS the completion: no extra
        notification message, the paper's one-sided payoff."""
        src = wc.src[0] if wc.src else ANY_SOURCE
        sinks = self._rendezvous_sinks.get(src)
        if not sinks:
            return
        tag, sink = sinks.popleft()
        data = bytes(sink.view())
        self.device.dereg_mr(sink)
        self._deliver(src, tag, data)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    _COLL_TAG_BARRIER = -1000
    _COLL_TAG_BCAST = -1001
    _COLL_TAG_REDUCE = -1002

    def barrier(self):
        """Dissemination barrier: ceil(log2(P)) rounds (generator)."""
        size, rank = self.size, self.rank
        round_num = 0
        distance = 1
        while distance < size:
            peer_to = (rank + distance) % size
            peer_from = (rank - distance) % size
            tag = self._COLL_TAG_BARRIER - round_num
            self.send(b"", peer_to, tag)
            yield self.recv(peer_from, tag)
            distance <<= 1
            round_num += 1

    def bcast(self, data: Optional[bytes], root: int = 0):
        """Binomial-tree broadcast (generator; returns the data)."""
        size = self.size
        vrank = (self.rank - root) % size
        # Climb the mask to the bit where this rank receives (non-roots),
        # or past the world size (root).
        mask = 1
        while mask < size and not (vrank & mask):
            mask <<= 1
        if vrank != 0:
            got = yield self.recv(
                ((vrank - mask) + root) % size, self._COLL_TAG_BCAST
            )
            data = got[0]
        elif data is None:
            raise MpiError("root must supply data to bcast")
        # Forward to children at decreasing offsets below my receive bit.
        m = mask >> 1
        while m >= 1:
            if vrank + m < size:
                self.send(data, ((vrank + m) + root) % size, self._COLL_TAG_BCAST)
            m >>= 1
        return data

    def allreduce_sum(self, value: float):
        """Recursive-doubling allreduce (generator; returns the sum).

        World sizes that are not powers of two fall back to a
        gather-to-root + bcast at the same tag space.
        """
        size = self.size
        total = float(value)
        if size & (size - 1) == 0:
            distance = 1
            while distance < size:
                peer = self.rank ^ distance
                tag = self._COLL_TAG_REDUCE - distance
                self.send(struct.pack("!d", total), peer, tag)
                got = yield self.recv(peer, tag)
                total += struct.unpack("!d", got[0])[0]
                distance <<= 1
            return total
        # Non-power-of-two: everyone sends to root; root reduces + bcasts.
        if self.rank == 0:
            for _ in range(size - 1):
                got = yield self.recv(ANY_SOURCE, self._COLL_TAG_REDUCE)
                total += struct.unpack("!d", got[0])[0]
            for peer in range(1, size):
                self.send(struct.pack("!d", total), peer, self._COLL_TAG_REDUCE - 1)
            return total
        self.send(struct.pack("!d", total), 0, self._COLL_TAG_REDUCE)
        got = yield self.recv(0, self._COLL_TAG_REDUCE - 1)
        return struct.unpack("!d", got[0])[0]


class MpiWorld:
    """A world of P ranks, one per testbed host."""

    def __init__(self, size: int = 2, testbed: Optional[Testbed] = None):
        if size < 2:
            raise MpiError("world needs at least 2 ranks")
        self.testbed = testbed or build_testbed(size)
        if len(self.testbed.hosts) < size:
            raise MpiError("testbed has fewer hosts than ranks")
        self.size = size
        self.sim = self.testbed.sim
        nets = install_stacks(self.testbed)
        self.comms = [
            Communicator(self, rank, RnicDevice(nets[rank]))
            for rank in range(size)
        ]

    def run(self, rank_main: Callable[[Communicator], Any], limit_ns: int = 60_000 * MS):
        """Run ``rank_main(comm)`` (a generator function) on every rank to
        completion; returns the per-rank results."""
        procs = [self.sim.process(rank_main(comm), name=f"rank{comm.rank}")
                 for comm in self.comms]
        for proc in procs:
            self.sim.run_until(proc.finished, limit=limit_ns)
        return [p.result for p in procs]
