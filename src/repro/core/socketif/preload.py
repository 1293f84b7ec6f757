"""LD_PRELOAD emulation: route socket calls to iWARP or the kernel.

The paper's shim "works by dynamically preloading it before running an
application, overriding the operating system networking calls to
sockets, re-directing them to use iWARP sockets instead" (§V.A).  In
the simulation, preloading is modelled by constructing the application
with an :class:`Interceptor`: every call goes to the iWARP interface
when interception is enabled for that socket type, and falls through to
the native kernel API otherwise — the same per-fd routing decision the
real shim makes.
"""

from __future__ import annotations

from typing import Optional

from ...simnet.engine import MS, Future
from .interface import IwSocketInterface, SOCK_DGRAM, SOCK_STREAM
from .native import NativeSocketApi


class Interceptor:
    """Per-socket-type routing between the iWARP shim and native sockets."""

    def __init__(
        self,
        native: NativeSocketApi,
        iwarp: Optional[IwSocketInterface],
        intercept_dgram: bool = True,
        intercept_stream: bool = True,
    ):
        self.native = native
        self.iwarp = iwarp
        self.intercept_dgram = intercept_dgram and iwarp is not None
        self.intercept_stream = intercept_stream and iwarp is not None
        self.sim = native.sim
        self._route = {}  # fd -> backing api

    def _backend_for(self, sock_type: str):
        if sock_type == SOCK_DGRAM and self.intercept_dgram:
            return self.iwarp
        if sock_type == SOCK_STREAM and self.intercept_stream:
            return self.iwarp
        return self.native

    def socket(self, sock_type: str, port: Optional[int] = None) -> int:
        backend = self._backend_for(sock_type)
        fd = backend.socket(sock_type, port)
        # Tag fds so both backends' numbering can coexist.
        tagged = (id(backend), fd)
        self._route[tagged] = backend
        return tagged

    def _split(self, tagged):
        backend_id, fd = tagged
        backend = self._route.get(tagged)
        if backend is None:
            raise KeyError(f"unknown fd {tagged}")
        return backend, fd

    # -- delegation ------------------------------------------------------

    def getsockname(self, tagged):
        backend, fd = self._split(tagged)
        return backend.getsockname(fd)

    def sendto(self, tagged, data, addr):
        backend, fd = self._split(tagged)
        return backend.sendto(fd, data, addr)

    def recvfrom_future(self, tagged, bufsize, timeout_ns=5000 * MS) -> Future:
        backend, fd = self._split(tagged)
        return backend.recvfrom_future(fd, bufsize, timeout_ns)

    def connect_future(self, tagged, addr) -> Future:
        backend, fd = self._split(tagged)
        return backend.connect_future(fd, addr)

    def listen(self, tagged, port) -> None:
        backend, fd = self._split(tagged)
        backend.listen(fd, port)

    def accept_future(self, tagged) -> Future:
        backend, fd = self._split(tagged)
        fut = self.sim.future()

        def wrap(child_fd) -> None:
            child_tagged = (id(backend), child_fd)
            self._route[child_tagged] = backend
            fut.set_result(child_tagged)

        backend.accept_future(fd).add_callback(wrap)
        return fut

    def send(self, tagged, data):
        backend, fd = self._split(tagged)
        return backend.send(fd, data)

    def recv_future(self, tagged, bufsize, timeout_ns=None) -> Future:
        backend, fd = self._split(tagged)
        return backend.recv_future(fd, bufsize, timeout_ns)

    def close(self, tagged) -> None:
        backend, fd = self._split(tagged)
        self._route.pop(tagged, None)
        backend.close(fd)
