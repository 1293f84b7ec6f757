"""Native (kernel) socket API with the same call surface as the shim.

Applications in :mod:`repro.apps` are written against this small
socket-API protocol; handing them an :class:`IwSocketInterface` instead
of a :class:`NativeSocketApi` is the simulation's equivalent of
LD_PRELOADing the paper's interception library.  Running the same
application over both is how the §VI.B.2 shim-overhead measurement
over native UDP (claim 16 of :mod:`repro.bench.claims`) is reproduced.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from ...simnet.engine import MS, Future
from ...transport.stacks import NetStack
from .interface import SOCK_DGRAM, SOCK_STREAM, Address


class NativeSocketError(Exception):
    pass


class NativeSocketApi:
    """fd-based facade over the host's kernel UDP/TCP stacks."""

    def __init__(self, net: NetStack):
        self.net = net
        self.sim = net.sim
        self._fds: Dict[int, dict] = {}
        self._next_fd = itertools.count(3)

    # -- creation -----------------------------------------------------------

    def socket(self, sock_type: str, port: Optional[int] = None) -> int:
        fd = next(self._next_fd)
        if sock_type == SOCK_DGRAM:
            self._fds[fd] = {"type": sock_type, "udp": self.net.udp.socket(port)}
        elif sock_type == SOCK_STREAM:
            self._fds[fd] = {"type": sock_type, "tcp": None, "listener": None, "rest": b""}
        else:
            raise NativeSocketError(f"unsupported socket type {sock_type!r}")
        return fd

    def _entry(self, fd: int) -> dict:
        try:
            return self._fds[fd]
        except KeyError:
            raise NativeSocketError(f"bad file descriptor {fd}") from None

    def _timed_recv(
        self, sock: Any, timeout_ns: Optional[int], convert: Callable[[Any], Any]
    ) -> Future:
        """``convert`` of ``sock``'s next receive, or None once
        ``timeout_ns`` passes first.  A receive that times out withdraws
        its waiter from the socket, so the data it would have taken goes
        to the next receive instead."""
        fut = self.sim.future()
        inner = sock.recv_future()
        if timeout_ns is None:
            inner.add_callback(lambda value: fut.set_result(convert(value)))
            return fut

        def expire() -> None:
            # Data the socket already handed over wins a tie with the timer.
            if not inner.done:
                sock.cancel_recv(inner)
                fut.set_result(None)

        timer = self.sim.at(self.sim.now + timeout_ns, expire)

        def settle(value: Any) -> None:
            timer.cancel()
            fut.set_result(convert(value))

        inner.add_callback(settle)
        return fut

    def getsockname(self, fd: int) -> Address:
        entry = self._entry(fd)
        if entry["type"] != SOCK_DGRAM:
            raise NativeSocketError("getsockname only for datagram sockets here")
        return (self.net.host.host_id, entry["udp"].port)

    # -- datagram ---------------------------------------------------------------

    def sendto(self, fd: int, data: bytes, addr: Address) -> int:
        self._entry(fd)["udp"].sendto(bytes(data), addr)
        return len(data)

    def recvfrom_future(
        self, fd: int, bufsize: int, timeout_ns: Optional[int] = 5000 * MS
    ) -> Future:
        return self._timed_recv(
            self._entry(fd)["udp"], timeout_ns,
            lambda result: (result[0][:bufsize], result[1]),
        )

    # -- stream ------------------------------------------------------------------

    def connect_future(self, fd: int, addr: Address) -> Future:
        entry = self._entry(fd)
        entry["tcp"] = self.net.tcp.connect(addr)
        return entry["tcp"].established

    def listen(self, fd: int, port: int) -> None:
        self._entry(fd)["listener"] = self.net.tcp.listen(port)

    def accept_future(self, fd: int) -> Future:
        entry = self._entry(fd)
        fut = self.sim.future()

        def wrap(sock) -> None:
            child = next(self._next_fd)
            self._fds[child] = {"type": SOCK_STREAM, "tcp": sock, "listener": None,
                                "rest": b""}
            fut.set_result(child)

        entry["listener"].accept_future().add_callback(wrap)
        return fut

    def send(self, fd: int, data: bytes) -> int:
        tcp = self._entry(fd)["tcp"]
        if tcp is None:
            raise NativeSocketError("send on unconnected stream socket")
        tcp.send(bytes(data))
        return len(data)

    def recv_future(
        self, fd: int, bufsize: int, timeout_ns: Optional[int] = None
    ) -> Future:
        """Up to ``bufsize`` stream bytes.  The rest of a longer chunk
        stays queued for this fd's next receive."""
        entry = self._entry(fd)
        if entry["rest"]:
            fut = self.sim.future()
            fut.set_result(self._take(entry, entry["rest"], bufsize))
            return fut
        return self._timed_recv(
            entry["tcp"], timeout_ns, lambda data: self._take(entry, data, bufsize)
        )

    @staticmethod
    def _take(entry: dict, data: bytes, bufsize: int) -> bytes:
        entry["rest"] = data[bufsize:]
        return data[:bufsize]

    def close(self, fd: int) -> None:
        entry = self._fds.pop(fd, None)
        if entry is None:
            return
        if entry["type"] == SOCK_DGRAM:
            entry["udp"].close()
        else:
            if entry["tcp"] is not None:
                entry["tcp"].close()
            if entry["listener"] is not None:
                entry["listener"].close()

    def open_fds(self) -> int:
        return len(self._fds)
