"""The iWARP socket interface (§V.A).

Translates BSD-socket data calls onto verbs so unmodified socket
applications run over datagram-iWARP.  Faithful to the paper's design
decisions:

* the shim "does not override the creation of sockets, only the data
  operations related to them": it keeps an fd → QP table and "whether
  the file descriptor has been previously initialized as an iWARP
  socket"; everything else lives in the socket structure;
* datagram sockets map to UD QPs, stream sockets to RC QPs, chosen per
  call by socket type;
* to "effectively support the use of multiple buffers on a single
  socket", remote buffers are advertised **once per peer** and incoming
  data is *copied* into the user-supplied buffer instead of
  re-advertising per call — which is exactly why send/recv and
  Write-Record "are almost identical in terms of performance when using
  our socket interface" (§VI.B.1).  The copy is charged at
  ``shim_copy_per_byte_ns``.

Wire framing the interface adds on untagged traffic: a 1-byte type
(DATA / ADV_REQ / ADV_REP) so the one-time sink advertisement handshake
for Write-Record can share the QP with data traffic.
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from ...memory.region import Access, MemoryRegion
from ...simnet.engine import MS, Event, Future
from ..verbs.cq import CompletionQueue
from ..verbs.device import RnicDevice
from ..verbs.qp import RcQp, UdQp
from ..verbs.wr import (
    WC_FLUSHED, WR_RDMA_WRITE_RECORD, WR_SEND, WR_SEND_SE,
    RecvWR, SendWR, Sge, WorkCompletion,
)

Address = Tuple[int, int]

SOCK_DGRAM = "SOCK_DGRAM"
SOCK_STREAM = "SOCK_STREAM"

# Interface-level framing on untagged messages.
_TYPE_DATA = 0
_TYPE_ADV_REQ = 1
_TYPE_ADV_REP = 2
_ADV_REP = struct.Struct("!BIQ")  # type, stag, ring size
_TYPE_HDR = struct.Struct("!B")
_DATA_TAG = _TYPE_HDR.pack(_TYPE_DATA)


class SocketError(Exception):
    """BSD-style failures (bad fd, message too long, not connected...)."""


def _post_pool(qp: Union[RcQp, UdQp], mrs: List[MemoryRegion]) -> Dict[int, RecvWR]:
    """Post one receive per receive-pool region, keyed by stag (each
    receive's wr_id).  A slot's receive is reposted as is after each
    completion: nothing in the stack writes to a posted RecvWR."""
    slots = {}
    for mr in mrs:
        wr = RecvWR(sges=[Sge(mr)], wr_id=mr.stag)
        slots[mr.stag] = wr
        qp.post_recv(wr)
    return slots


def _expire_waiter(waiter: dict) -> None:
    if not waiter["future"].done:
        waiter["future"].set_result(None)


class _DgramSocket:
    """State behind one datagram fd."""

    def __init__(self, iface: "IwSocketInterface", port: Optional[int]):
        self.iface = iface
        dev = iface.device
        self.cq: CompletionQueue = dev.create_cq()
        self.qp: UdQp = dev.create_ud_qp(iface.pd, self.cq, port=port)
        # Receive pool: pre-posted buffers for send/recv arrivals, keyed
        # by stag (each receive's wr_id) and registered as one CPU item.
        self.pool_slot = iface.pool_slot_bytes
        self._slots = _post_pool(self.qp, dev.reg_mrs(
            iface.pool_slots, self.pool_slot, Access.local_only(), iface.pd))
        # Write-Record sink rings, one per advertising peer.
        self._rings: Dict[Address, dict] = {}      # peers writing to us
        self._peer_sinks: Dict[Address, dict] = {}  # our view of peers' rings
        self._adv_waiters: Dict[Address, list] = {}
        # Delivered-but-unread datagrams.
        self._rxq: Deque[Tuple[bytes, Address]] = deque()
        #: Datagrams that waited for a peer's ring advertisement and then
        #: fit neither that ring nor a receive slot: dropped, because no
        #: sendto is left to raise EMSGSIZE to.
        self.oversize_drops = 0
        self._waiters: Deque[dict] = deque()
        self._drain_arm()

    # -- receive plumbing -------------------------------------------------

    def _drain_arm(self) -> None:
        self.cq.poll_callback(self._on_completions)

    def _on_completions(self, wcs) -> None:
        for wc in wcs:
            self._handle_wc(wc)
        if self.qp.state != "ERROR":
            self._drain_arm()

    def _handle_wc(self, wc: WorkCompletion) -> None:
        if wc.opcode is WR_RDMA_WRITE_RECORD:
            if not wc.ok:
                return
            ring = self._rings.get(wc.src)
            if ring is None:
                return
            data = self._read_ring(ring, wc)
            if data is not None:
                self._deliver(data, wc.src)
            return
        if wc.opcode in (WR_SEND, WR_SEND_SE):
            wr = self._slots.get(wc.wr_id)
            if wr is None:
                return
            mr = wr.sges[0].mr
            if wc.ok and wc.byte_len >= _TYPE_HDR.size:
                view = mr.view(0, wc.byte_len)
                self._dispatch_untagged(view[0], bytes(view[1:]), wc.src)
            # Repost the slot (partial/errored arrivals are simply recycled:
            # UD loss semantics) — unless the QP flushed it on teardown.
            if wc.status is not WC_FLUSHED:
                self.qp.post_recv(wr)

    def _dispatch_untagged(self, kind: int, body: bytes, src: Address) -> None:
        if kind == _TYPE_DATA:
            self._deliver(body, src)
        elif kind == _TYPE_ADV_REQ:
            self._send_advertisement(src)
        elif kind == _TYPE_ADV_REP:
            _, stag, size = _ADV_REP.unpack(bytes([_TYPE_ADV_REP]) + body)
            sink = {"stag": stag, "size": size, "cursor": 0}
            self._peer_sinks[src] = sink
            for fut in self._adv_waiters.pop(src, []):
                fut.set_result(sink)

    def _send_advertisement(self, peer: Address) -> None:
        """Register a dedicated sink ring for ``peer`` and tell it."""
        iface = self.iface
        ring = self._rings.get(peer)
        if ring is None:
            mr = iface.device.reg_mr(
                iface.ring_bytes, Access.remote_write(), iface.pd
            )
            ring = {"mr": mr}
            self._rings[peer] = ring
        rep = _ADV_REP.pack(_TYPE_ADV_REP, ring["mr"].stag, len(ring["mr"]))
        self._post_untagged(rep, peer)

    def _read_ring(self, ring: dict, wc: WorkCompletion) -> Optional[bytes]:
        """Copy one Write-Record message out of the peer's ring.

        The validity map's ranges are ring offsets relative to where the
        peer wrote; for a complete message they are contiguous.  Partial
        messages surface the valid prefix/chunks concatenated — the
        loss-tolerant consumption model of §IV.B.4.
        """
        if wc.validity is None or wc.validity.valid_bytes() == 0:
            return None
        mr = ring["mr"]
        parts = []
        for off, length in wc.validity.ranges():
            parts.append(bytes(mr.view(wc.base_offset + off, length)))
        return b"".join(parts)

    # -- user-facing operations ----------------------------------------------

    def _deliver(self, data: bytes, src: Address) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter["future"].done:
                continue
            self.iface._release_timer(waiter)
            self.iface._charge_copy(len(data))
            waiter["future"].set_result((data[: waiter["bufsize"]], src))
            return
        self._rxq.append((data, src))

    def recvfrom_future(self, bufsize: int, timeout_ns: Optional[int]) -> Future:
        iface = self.iface
        iface._charge_dispatch()
        fut = iface.sim.future()
        if self._rxq:
            data, src = self._rxq.popleft()
            iface._charge_copy(len(data))
            fut.set_result((data[:bufsize], src))
            return fut
        self._waiters.append(iface._waiter(fut, bufsize, timeout_ns))
        return fut

    def sendto(self, data: bytes, addr: Address) -> None:
        iface = self.iface
        iface._charge_dispatch()
        if iface.rdma_mode and len(data) <= iface.ring_bytes:
            sink = self._peer_sinks.get(addr)
            if sink is None:
                self._request_advertisement_then_send(data, addr)
                return
            self._write_record_to(data, addr, sink)
            return
        self._post_untagged(_DATA_TAG + bytes(data), addr)

    def _request_advertisement_then_send(self, data: bytes, addr: Address) -> None:
        fut = self.iface.sim.future()
        self._adv_waiters.setdefault(addr, []).append(fut)
        if len(self._adv_waiters[addr]) == 1:
            self._post_untagged(_TYPE_HDR.pack(_TYPE_ADV_REQ), addr)
        fut.add_callback(lambda sink: self._send_advertised(data, addr, sink))

    def _send_advertised(self, data: bytes, addr: Address, sink: dict) -> None:
        if len(data) > sink["size"] and _TYPE_HDR.size + len(data) > self.pool_slot:
            self.oversize_drops += 1
            return
        self._write_record_to(data, addr, sink)

    def _write_record_to(self, data: bytes, addr: Address, sink: dict) -> None:
        if len(data) > sink["size"]:
            # The peer advertised a smaller ring than ours: the message
            # goes as an untagged Send, or raises EMSGSIZE if it does
            # not fit a receive slot either.
            self._post_untagged(_DATA_TAG + bytes(data), addr)
            return
        if sink["cursor"] + len(data) > sink["size"]:
            sink["cursor"] = 0  # wrap the ring
        offset = sink["cursor"]
        sink["cursor"] += len(data)
        mr = self.iface.scratch_for(len(data))
        mr.write(0, data)
        self.qp.post_send(
            SendWR(
                opcode=WR_RDMA_WRITE_RECORD,
                sges=[Sge(mr, 0, len(data))],
                dest=addr,
                remote_stag=sink["stag"],
                remote_offset=offset,
                signaled=False,
            )
        )

    def _post_untagged(self, payload: bytes, addr: Address) -> None:
        if len(payload) > self.pool_slot:
            raise SocketError(
                f"datagram of {len(payload)} bytes exceeds socket buffer "
                f"{self.pool_slot} (EMSGSIZE)"
            )
        mr = self.iface.scratch_for(len(payload))
        mr.write(0, payload)
        self.qp.post_send(
            SendWR(
                opcode=WR_SEND,
                sges=[Sge(mr, 0, len(payload))],
                dest=addr,
                signaled=False,
            )
        )

    @property
    def address(self) -> Address:
        return self.qp.address

    def close(self) -> None:
        # Flushed receives never touch their slot, so the pool and the
        # Write-Record rings can go with the QP.
        self.qp.close()
        dereg = self.iface.device.dereg_mr
        for wr in self._slots.values():
            dereg(wr.sges[0].mr)
        for ring in self._rings.values():
            dereg(ring["mr"])


class _StreamSocket:
    """State behind one stream fd (RC QP, SDP-like buffered copy)."""

    def __init__(self, iface: "IwSocketInterface"):
        self.CHUNK = iface.pool_slot_bytes
        self.iface = iface
        self.qp: Optional[RcQp] = None
        self.listener = None
        self._slots: Dict[int, RecvWR] = {}
        self._rxbuf = bytearray()
        self._waiters: Deque[dict] = deque()
        self._accept_q: Deque["_StreamSocket"] = deque()
        self._accept_waiters: Deque[Future] = deque()

    # -- connection management ---------------------------------------------

    def connect_future(self, addr: Address) -> Future:
        iface = self.iface
        iface._charge_dispatch()
        cq = iface.device.create_cq()
        self.qp = iface.device.rc_connect(addr, iface.pd, cq)
        self._arm_qp()
        return self.qp.ready

    def listen(self, port: int) -> None:
        iface = self.iface
        self.listener = iface.device.rc_listen(
            port, iface.pd, iface.device.create_cq, on_qp=self._on_accepted_qp
        )

    def _on_accepted_qp(self, qp: RcQp) -> None:
        child = _StreamSocket(self.iface)
        child.qp = qp
        child._arm_qp()
        if self._accept_waiters:
            self._accept_waiters.popleft().set_result(child)
        else:
            self._accept_q.append(child)

    def accept_future(self) -> Future:
        fut = self.iface.sim.future()
        if self._accept_q:
            fut.set_result(self._accept_q.popleft())
        else:
            self._accept_waiters.append(fut)
        return fut

    def _arm_qp(self) -> None:
        # Pre-post the buffered-copy receive pool (one CPU work item).
        iface = self.iface
        self._slots = _post_pool(self.qp, iface.device.reg_mrs(
            iface.pool_slots, self.CHUNK, Access.local_only(), iface.pd))
        self._drain_arm()

    def _drain_arm(self) -> None:
        self.qp.rq_cq.poll_callback(self._on_completions)

    def _on_completions(self, wcs) -> None:
        qp = self.qp
        # A QP in ERROR takes no receive: the bytes already placed are
        # kept, and no slot is reposted.
        live = qp.state != "ERROR"
        for wc in wcs:
            if wc.opcode in (WR_SEND, WR_SEND_SE):
                wr = self._slots.get(wc.wr_id)
                if wr is None:
                    continue
                mr = wr.sges[0].mr
                if wc.ok and wc.byte_len:
                    self._rxbuf += mr.view(0, wc.byte_len)
                if live and wc.status is not WC_FLUSHED:
                    qp.post_recv(wr)
        self._satisfy_waiters()
        if qp.state != "ERROR":
            self._drain_arm()

    def _satisfy_waiters(self) -> None:
        # Once the QP is in ERROR nothing more arrives: a receive the
        # buffer cannot satisfy ends as a timeout does (EOF waits for
        # ROADMAP item 4).
        while self._waiters and (self._rxbuf or self.qp.state == "ERROR"):
            waiter = self._waiters.popleft()
            if waiter["future"].done:
                continue
            self.iface._release_timer(waiter)
            waiter["future"].set_result(
                self._take(waiter["bufsize"]) if self._rxbuf else None)

    def _take(self, bufsize: int) -> bytes:
        """Remove up to ``bufsize`` buffered bytes and charge their copy."""
        rxbuf = self._rxbuf
        if bufsize < len(rxbuf):
            take = bufsize
            data = bytes(rxbuf[:take])
            del rxbuf[:take]
        else:
            take = len(rxbuf)
            data = bytes(rxbuf)
            rxbuf.clear()
        self.iface._charge_copy(take)
        return data

    # -- data ---------------------------------------------------------------

    def send(self, data: bytes) -> None:
        iface = self.iface
        iface._charge_dispatch()
        if self.qp is None or self.qp.state != "RTS":
            raise SocketError("send on unconnected stream socket")
        # bytes() of a bytes payload is the payload itself: its one copy
        # is each chunk's write into the staging region.
        view = memoryview(bytes(data))
        for off in range(0, len(view), self.CHUNK):
            chunk = view[off : off + self.CHUNK]
            mr = iface.scratch_for(len(chunk))
            mr.write(0, chunk)
            self.qp.post_send(
                SendWR(
                    opcode=WR_SEND,
                    sges=[Sge(mr, 0, len(chunk))],
                    signaled=False,
                )
            )

    def recv_future(self, bufsize: int, timeout_ns: Optional[int] = None) -> Future:
        iface = self.iface
        iface._charge_dispatch()
        fut = iface.sim.future()
        if self._rxbuf:
            fut.set_result(self._take(bufsize))
        elif self.qp is not None and self.qp.state == "ERROR":
            fut.set_result(None)
        else:
            self._waiters.append(iface._waiter(fut, bufsize, timeout_ns))
        return fut

    def close(self) -> None:
        if self.qp is not None:
            self.qp.close()
        if self.listener is not None:
            self.listener.close()
        for wr in self._slots.values():
            self.iface.device.dereg_mr(wr.sges[0].mr)


class IwSocketInterface:
    """fd table + dispatch: the preloaded library of §V.A."""

    def __init__(
        self,
        device: RnicDevice,
        rdma_mode: bool = True,
        pool_slots: int = 32,
        pool_slot_bytes: int = 64 * 1024,
        ring_bytes: int = 4 * 1024 * 1024,
    ):
        self.device = device
        self.sim = device.sim
        self.pd = device.alloc_pd()
        #: True: datagram sends use RDMA Write-Record; False: UD send/recv.
        self.rdma_mode = rdma_mode
        self.pool_slots = pool_slots
        self.pool_slot_bytes = pool_slot_bytes
        self.ring_bytes = ring_bytes
        # The shim's CPU and per-call costs, bound once.
        host = device.host
        self._charge = host.cpu.charge
        self._dispatch_ns = host.costs.shim_dispatch_ns
        self._copy_per_byte_ns = host.costs.shim_copy_per_byte_ns
        self._fds: Dict[int, object] = {}
        self._next_fd = itertools.count(3)
        # Scratch send regions, grown on demand and reused.
        self._scratch: Dict[int, object] = {}
        # A receive-timeout timer a satisfied waiter left, for the next
        # waiter to rearm.
        self._spare_timer: Optional[Event] = None

    # -- bookkeeping -------------------------------------------------------

    def scratch_for(self, nbytes: int):
        """A registered staging region of at least ``nbytes`` (reused —
        registration costs are paid once, like the paper's buffer pool)."""
        # max(4096, the next power of two at or above nbytes).
        size = 1 << (nbytes - 1).bit_length() if nbytes > 4096 else 4096
        mr = self._scratch.get(size)
        if mr is None:
            mr = self.device.reg_mr(size, Access.local_only(), self.pd)
            self._scratch[size] = mr
        return mr

    def _waiter(self, fut: Future, bufsize: int, timeout_ns: Optional[int]) -> dict:
        """A blocked receive: resolves ``fut`` with None after
        ``timeout_ns`` unless data satisfies it first."""
        waiter = {"future": fut, "bufsize": bufsize, "timer": None}
        if timeout_ns is not None:
            timer = self._spare_timer
            if timer is None:
                timer = self.sim.at(self.sim.now + timeout_ns, _expire_waiter, waiter)
            else:
                self._spare_timer = None
                self.sim.rearm(timer, self.sim.now + timeout_ns, waiter)
            waiter["timer"] = timer
        return waiter

    def _release_timer(self, waiter: dict) -> None:
        """Cancel a satisfied waiter's timeout and keep it as the spare."""
        timer = waiter["timer"]
        if timer is not None:
            timer.cancel()
            self._spare_timer = timer

    def _charge_dispatch(self) -> None:
        self._charge(self._dispatch_ns)

    def _charge_copy(self, nbytes: int) -> None:
        self._charge(int(self._copy_per_byte_ns * nbytes))

    def _sock(self, fd: int):
        try:
            return self._fds[fd]
        except KeyError:
            raise SocketError(f"bad file descriptor {fd}") from None

    def _dgram(self, fd: int) -> _DgramSocket:
        sock = self._sock(fd)
        if not isinstance(sock, _DgramSocket):
            raise SocketError(f"fd {fd} is not a datagram socket")
        return sock

    def _stream(self, fd: int) -> _StreamSocket:
        sock = self._sock(fd)
        if not isinstance(sock, _StreamSocket):
            raise SocketError(f"fd {fd} is not a stream socket")
        return sock

    # -- the socket API ---------------------------------------------------------

    def socket(self, sock_type: str, port: Optional[int] = None) -> int:
        fd = next(self._next_fd)
        if sock_type == SOCK_DGRAM:
            self._fds[fd] = _DgramSocket(self, port)
        elif sock_type == SOCK_STREAM:
            self._fds[fd] = _StreamSocket(self)
        else:
            raise SocketError(f"unsupported socket type {sock_type!r}")
        return fd

    def getsockname(self, fd: int) -> Address:
        sock = self._sock(fd)
        if isinstance(sock, _DgramSocket):
            return sock.address
        raise SocketError("getsockname only implemented for datagram sockets")

    def sendto(self, fd: int, data: bytes, addr: Address) -> int:
        self._dgram(fd).sendto(bytes(data), addr)
        return len(data)

    def recvfrom_future(
        self, fd: int, bufsize: int, timeout_ns: Optional[int] = 5000 * MS
    ) -> Future:
        """Resolves to ``(data, src_addr)`` or None on timeout."""
        return self._dgram(fd).recvfrom_future(bufsize, timeout_ns)

    def connect_future(self, fd: int, addr: Address) -> Future:
        return self._stream(fd).connect_future(addr)

    def listen(self, fd: int, port: int) -> None:
        self._stream(fd).listen(port)

    def accept_future(self, fd: int) -> Future:
        """Resolves to a new connected fd."""
        fut = self.sim.future()

        def wrap(child: _StreamSocket) -> None:
            child_fd = next(self._next_fd)
            self._fds[child_fd] = child
            fut.set_result(child_fd)

        self._stream(fd).accept_future().add_callback(wrap)
        return fut

    def send(self, fd: int, data: bytes) -> int:
        self._stream(fd).send(data)
        return len(data)

    def recv_future(
        self, fd: int, bufsize: int, timeout_ns: Optional[int] = None
    ) -> Future:
        return self._stream(fd).recv_future(bufsize, timeout_ns)

    def close(self, fd: int) -> None:
        sock = self._fds.pop(fd, None)
        if sock is not None:
            sock.close()

    def open_fds(self) -> int:
        return len(self._fds)
