"""UDP over the simulated IP layer.

This is the lower-layer protocol (LLP) under datagram-iWARP (Fig. 4 of
the paper): unreliable, unordered, message-oriented, with the standard
~64 KB datagram ceiling.  CPU costs for the kernel UDP path — syscall,
user/kernel copy, protocol processing, per-fragment IP work — are
charged to the host CPU here, so higher layers inherit realistic send
and receive overheads without duplicating accounting.

Checksumming is configurable and off by default, matching the paper's
recommendation to disable UDP checksums because datagram-iWARP's DDP
layer always applies CRC32 (§V).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from ..simnet.engine import Future, Simulator
from ..simnet.host import Host
from .ip import IpStack

UDP_HEADER = 8
#: Maximum UDP payload: 65535 - IP header (20) - UDP header (8).
UDP_MAX_PAYLOAD = 65507

Address = Tuple[int, int]  # (host_id, port)


class UdpError(Exception):
    """Base class for UDP usage errors."""


class MessageTooLongError(UdpError):
    """Datagram exceeds UDP_MAX_PAYLOAD (EMSGSIZE)."""


class AddressInUseError(UdpError):
    """Port already bound (EADDRINUSE)."""


@dataclass
class UdpDatagram:
    """The upper-layer object IP carries for us."""

    src_port: int
    dst_port: int
    data: bytes
    checksummed: bool = False

    @property
    def size(self) -> int:
        return UDP_HEADER + len(self.data)


class UdpSocket:
    """A bound UDP endpoint.

    Receive side offers three styles: a synchronous ``poll()`` of the
    queue, a ``recv_future()`` for process-style code, and an
    ``on_datagram`` callback for protocol layers (datagram-iWARP binds
    here).
    """

    def __init__(self, stack: "UdpStack", port: int):
        self.stack = stack
        self.port = port
        self.rcvbuf_bytes = 4 * 1024 * 1024
        self._queued_bytes = 0
        self._queue: Deque[Tuple[bytes, Address]] = deque()
        self._waiters: Deque[Future] = deque()
        self.on_datagram: Optional[Callable[[bytes, Address], None]] = None
        self.closed = False
        # Statistics.
        self.tx_datagrams = 0
        self.rx_datagrams = 0
        self.drops_rcvbuf = 0

    # -- send ----------------------------------------------------------------

    def sendto(self, data: bytes, addr: Address) -> None:
        """Send one datagram.  Charges the kernel transmit path on the
        host CPU, then hands the datagram to IP."""
        if self.closed:
            raise UdpError("socket is closed")
        if len(data) > UDP_MAX_PAYLOAD:
            raise MessageTooLongError(
                f"{len(data)} bytes exceeds UDP maximum {UDP_MAX_PAYLOAD}"
            )
        self.stack.transmit(self, bytes(data), addr)
        self.tx_datagrams += 1

    def sendto_uncharged(self, data: bytes, addr: Address) -> None:
        """Send with CPU costs already accounted by the caller (used by
        in-process protocol layers that batch their accounting).  Must be
        called from CPU-execution context."""
        if self.closed:
            raise UdpError("socket is closed")
        if len(data) > UDP_MAX_PAYLOAD:
            raise MessageTooLongError(
                f"{len(data)} bytes exceeds UDP maximum {UDP_MAX_PAYLOAD}"
            )
        dgram = UdpDatagram(
            src_port=self.port, dst_port=addr[1], data=bytes(data),
            checksummed=self.stack.checksum_enabled,
        )
        self.stack.ip.send(addr[0], "udp", dgram, dgram.size)
        self.tx_datagrams += 1

    # -- receive ---------------------------------------------------------------

    def deliver(self, data: bytes, src: Address) -> None:
        """Called by the stack once receive-path CPU costs are paid."""
        if self.closed:
            return
        self.rx_datagrams += 1
        if self.on_datagram is not None:
            self.on_datagram(data, src)
            return
        if self._waiters:
            self._waiters.popleft().set_result((data, src))
            return
        if self._queued_bytes + len(data) > self.rcvbuf_bytes:
            self.drops_rcvbuf += 1
            return
        self._queue.append((data, src))
        self._queued_bytes += len(data)

    def poll(self) -> Optional[Tuple[bytes, Address]]:
        """Non-blocking receive; None if nothing queued."""
        if not self._queue:
            return None
        data, src = self._queue.popleft()
        self._queued_bytes -= len(data)
        return (data, src)

    def recv_future(self) -> Future:
        """Future resolving to ``(data, src_addr)`` — for process code."""
        fut = self.stack.sim.future()
        queued = self.poll()
        if queued is not None:
            fut.set_result(queued)
        else:
            self._waiters.append(fut)
        return fut

    def cancel_recv(self, fut: Future) -> None:
        """Withdraw a :meth:`recv_future` that is still waiting (its
        caller gave up), so the next datagram goes to the next receive."""
        self._waiters.remove(fut)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.stack.unbind(self.port)


class UdpStack:
    """Per-host UDP: port table, CPU accounting, checksum policy."""

    EPHEMERAL_BASE = 49152

    def __init__(self, host: Host, ip: IpStack, checksum_enabled: bool = False):
        self.host = host
        self.sim: Simulator = host.sim
        self.ip = ip
        #: Optional wire-corruption injection (simnet.loss.BitErrorModel):
        #: applied to arriving datagram payloads before delivery, standing
        #: in for corruption the disabled UDP checksum would miss.
        self.corruption = None
        #: The paper recommends disabling UDP checksums under
        #: datagram-iWARP (DDP CRC32 covers integrity); tests and the CRC
        #: ablation can re-enable them.
        self.checksum_enabled = checksum_enabled
        self._sockets: Dict[int, UdpSocket] = {}
        self._ephemeral = itertools.count(self.EPHEMERAL_BASE)
        ip.register("udp", self._on_ip_delivery)
        self.rx_no_socket = 0

    # -- sockets -------------------------------------------------------------

    def socket(self, port: Optional[int] = None) -> UdpSocket:
        """Create and bind a socket (ephemeral port when None)."""
        if port is None:
            port = next(self._ephemeral)
            while port in self._sockets:
                port = next(self._ephemeral)
        if port in self._sockets:
            raise AddressInUseError(f"UDP port {port} in use on {self.host.name}")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def bound_ports(self) -> int:
        return len(self._sockets)

    # -- transmit path -----------------------------------------------------------

    def transmit(self, sock: UdpSocket, data: bytes, addr: Address) -> None:
        dst_host, dst_port = addr
        costs = self.host.costs
        dgram = UdpDatagram(
            src_port=sock.port, dst_port=dst_port, data=data,
            checksummed=self.checksum_enabled,
        )
        size = UDP_HEADER + len(data)
        nfrags = self.ip.fragments_needed(size)
        cost = (
            costs.syscall_ns
            + costs.copy_ns(len(data))
            + costs.udp_tx_fixed_ns
            + costs.ip_tx_per_frag_ns * nfrags
        )
        if self.checksum_enabled:
            cost += int(costs.udp_checksum_per_byte_ns * len(data))
        self.host.cpu.submit(cost, self.ip.send, dst_host, "udp", dgram, size)

    # -- receive path ------------------------------------------------------------

    def _on_ip_delivery(self, dgram: UdpDatagram, src_host: int, size: int) -> None:
        costs = self.host.costs
        cost = costs.udp_rx_fixed_ns + costs.copy_ns(len(dgram.data))
        if self.checksum_enabled and dgram.checksummed:
            cost += int(costs.udp_checksum_per_byte_ns * len(dgram.data))
        # Per-fragment IP receive work + interrupt (only charged when the
        # CPU is idle, approximating NAPI interrupt coalescing).
        nfrags = self.ip.fragments_needed(size)
        cost += costs.ip_rx_per_frag_ns * nfrags
        if self.host.cpu._free_at <= self.sim.now:
            cost += costs.interrupt_ns
        sock = self._sockets.get(dgram.dst_port)
        if sock is None:
            self.rx_no_socket += 1
            return
        data = dgram.data if self.corruption is None else self.corruption.apply(dgram.data)
        self.host.cpu.submit(cost, sock.deliver, data, (src_host, dgram.src_port))
