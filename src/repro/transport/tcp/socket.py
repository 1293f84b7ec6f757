"""TCP stack (per host) and stream-socket API.

The stack owns the port space, demultiplexes segments to connections,
and charges kernel CPU costs at the same points the UDP stack does, so
the RC-vs-UD comparisons in the benchmarks are apples-to-apples:

* transmit: per-segment processing on the sender CPU;
* receive: per-segment processing + software checksum on the receiver
  CPU (pure ACKs pay the cheaper ACK-processing cost);
* delivery: kernel→user copy when bytes reach the application.

``TcpSocket`` is the thin stream-socket face over a connection
(connect / send / on_data / close); the iWARP MPA layer binds to it the
same way an application would.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

from ...simnet.engine import Future, Mailbox, Simulator
from ...simnet.host import Host
from ..ip import IpStack
from ..listener import Listener
from .connection import ESTABLISHED, TcpConnection, TcpError
from .segment import SYN, TCP_HEADER, TcpSegment

Address = Tuple[int, int]


class TcpStack:
    """Per-host TCP: port table, ISS generation, CPU accounting."""

    EPHEMERAL_BASE = 49152

    def __init__(self, host: Host, ip: IpStack, mss: Optional[int] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.ip = ip
        # MSS from the link MTU unless overridden (IP 20 + TCP 20).
        self.mss = mss if mss is not None else ip.mtu() - 40
        self._conns: Dict[Tuple[int, int, int], TcpConnection] = {}
        self._listeners: Dict[int, Listener] = {}
        # Live connections per local port, so allocation skips a port
        # in use without scanning every connection.
        self._port_conns: Dict[int, int] = {}
        self._ephemeral = itertools.count(self.EPHEMERAL_BASE)
        self._iss = itertools.count(1)
        ip.register("tcp", self._on_ip_delivery)
        self.rx_no_socket = 0

    # -- port management ---------------------------------------------------

    def _alloc_port(self) -> int:
        port = next(self._ephemeral)
        while port in self._port_conns or port in self._listeners:
            port = next(self._ephemeral)
        return port

    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise TcpError(f"TCP port {port} already listening on {self.host.name}")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, remote: Address, local_port: Optional[int] = None) -> "TcpSocket":
        """Active open; returns a socket whose ``established`` future
        resolves at handshake completion."""
        lport = local_port if local_port is not None else self._alloc_port()
        conn = self._new_connection(lport, remote)
        sock = TcpSocket(self, conn)
        # Connect costs one syscall before the SYN leaves.
        self.host.cpu.submit(self.host.costs.syscall_ns, conn.open_active)
        return sock

    def _new_connection(self, local_port: int, remote: Address) -> TcpConnection:
        key = (local_port, remote[0], remote[1])
        if key in self._conns:
            raise TcpError(f"connection {key} already exists")
        conn = TcpConnection(
            self,
            local_port=local_port,
            remote=remote,
            iss=next(self._iss) * 1_000_000,
            mss=self.mss,
        )
        self._conns[key] = conn
        self._port_conns[local_port] = self._port_conns.get(local_port, 0) + 1
        return conn

    def forget(self, conn: TcpConnection) -> None:
        port = conn.local_port
        if self._conns.pop((port, conn.remote[0], conn.remote[1]), None) is None:
            return
        if self._port_conns[port] == 1:
            del self._port_conns[port]
        else:
            self._port_conns[port] -= 1

    def open_connections(self) -> int:
        return len(self._conns)

    # -- transmit path ------------------------------------------------------

    def transmit_segment(
        self, conn: TcpConnection, seg: TcpSegment, pure_ack: bool = False
    ) -> None:
        costs = self.host.costs
        cost = costs.tcp_ack_tx_ns if pure_ack else costs.tcp_tx_per_seg_ns
        # Charge the per-segment stack cost but hand the segment to IP
        # immediately: the output engine runs inside CPU-execution
        # context already, and a queued handoff here would serialize a
        # whole window of segments behind unrelated queued work.
        self.host.cpu.charge(cost)
        self.ip.send(conn.remote[0], "tcp", seg, TCP_HEADER + len(seg.payload))

    def charge_send_call(self, nbytes: int, then: Callable, *args) -> None:
        """syscall + user→kernel copy for one send() call."""
        costs = self.host.costs
        self.host.cpu.submit(
            costs.syscall_ns + costs.tcp_tx_fixed_ns + costs.copy_ns(nbytes),
            then, *args,
        )

    # -- receive path ---------------------------------------------------------

    def _on_ip_delivery(self, seg: TcpSegment, src_host: int, size: int) -> None:
        costs = self.host.costs
        if seg.payload:
            cost = costs.tcp_rx_per_seg_ns + int(
                costs.tcp_checksum_per_byte_ns * len(seg.payload)
            )
            # NAPI: the interrupt is only taken when the receive path is
            # idle; pure ACKs coalesce into existing poll cycles.
            if self.host.cpu._free_at <= self.sim.now:
                cost += costs.interrupt_ns
        else:
            cost = costs.tcp_ack_rx_ns
        self.host.cpu.submit(cost, self._demux, seg, src_host)

    def _demux(self, seg: TcpSegment, src_host: int) -> None:
        key = (seg.dst_port, src_host, seg.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            conn.on_segment(seg)
            return
        listener = self._listeners.get(seg.dst_port)
        if listener is not None and seg.has(SYN):
            conn = self._new_connection(seg.dst_port, (src_host, seg.src_port))
            sock = TcpSocket(self, conn)
            conn.established.add_callback(lambda _: listener._deliver(sock))
            conn.open_passive(seg)
            return
        self.rx_no_socket += 1

    def deliver_to_app(self, conn: TcpConnection, data: bytes) -> None:
        """kernel→user copy, then the socket's data upcall."""
        sock = getattr(conn, "socket", None)
        cost = self.host.costs.copy_ns(len(data))
        self.host.cpu.submit(cost, self._app_upcall, sock, conn, data)

    @staticmethod
    def _app_upcall(sock: Optional["TcpSocket"], conn: TcpConnection, data: bytes) -> None:
        if sock is not None:
            sock._on_data(data)


class TcpSocket:
    """Stream socket over one connection."""

    def __init__(self, stack: TcpStack, conn: TcpConnection):
        self.stack = stack
        self.conn = conn
        conn.socket = self  # type: ignore[attr-defined]
        self._rx = Mailbox(stack.sim)
        self.on_data: Optional[Callable[[bytes], None]] = None

    @property
    def established(self) -> Future:
        return self.conn.established

    @property
    def remote(self) -> Address:
        return self.conn.remote

    @property
    def connected(self) -> bool:
        return self.conn.state == ESTABLISHED

    def send(self, data: bytes) -> None:
        """Queue bytes on the stream (charges syscall + copy, then feeds
        the connection's output engine)."""
        # The CPU charge defers _send_now, so mutable buffers must be
        # snapshotted here; immutable bytes can be handed through as-is.
        if not isinstance(data, bytes):
            data = bytes(data)
        self.stack.charge_send_call(len(data), self._send_now, data)

    def _send_now(self, data: bytes) -> None:
        state = self.conn.state
        if state == "CLOSED":
            return  # connection died while the syscall was in flight
        if state in ("SYN_SENT", "SYN_RCVD"):
            # Data written before the handshake completes is buffered and
            # flushed on establishment (blocking-connect semantics).
            self.conn.established.add_callback(
                lambda result: self._send_now(data) if result else None
            )
            return
        if state in ("ESTABLISHED", "CLOSE_WAIT"):
            self.conn.send(data)
        # Any other state: stream is shutting down; data is discarded
        # exactly as a write-after-shutdown would be.

    def send_from_stack(self, data: bytes) -> None:
        """Queue bytes without per-call CPU accounting — for in-process
        protocol layers (the iWARP library) that batch writes and charge
        their own syscall/copy costs.  Must be called from CPU-execution
        context (an event callback), like all stack internals."""
        if self.conn.state != "CLOSED":
            # No snapshot needed: conn.send copies into the send buffer
            # synchronously, before control returns to the caller.
            self.conn.send(data)

    def _on_data(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(data)
        else:
            self._rx.put(data)

    def recv_future(self) -> Future:
        """Future resolving to the next chunk of stream bytes."""
        return self._rx.get()

    def cancel_recv(self, fut: Future) -> None:
        """Withdraw a :meth:`recv_future` that is still waiting (its
        caller gave up), so the next chunk goes to the next receive."""
        self._rx.cancel(fut)

    def close(self) -> None:
        # Ordered behind any queued send syscalls on the same CPU, so
        # send(); close() flushes the data before the FIN.
        self.stack.host.cpu.submit(self.stack.host.costs.syscall_ns, self.conn.close)

    def abort(self) -> None:
        self.conn.abort()
