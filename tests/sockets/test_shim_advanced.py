"""Advanced socket-shim scenarios: ring wrap, concurrent peers, stream
interception, and error paths."""

import pytest

from repro.core.socketif import (
    Interceptor, IwSocketInterface, NativeSocketApi, SOCK_DGRAM, SOCK_STREAM,
    SocketError,
)
from repro.core.verbs import RnicDevice
from repro.simnet.engine import MS, SEC

RUN_LIMIT = 600 * SEC


@pytest.fixture
def world(zero_testbed, zero_stacks):
    devs = [RnicDevice(n) for n in zero_stacks]

    def make(dev, pool_slots=8, pool_slot_bytes=8192, **kw):
        return IwSocketInterface(
            dev, pool_slots=pool_slots, pool_slot_bytes=pool_slot_bytes, **kw
        )

    return zero_testbed, devs, make


class TestWriteRecordRing:
    def test_ring_wrap_preserves_messages(self, world):
        tb, devs, make = world
        a = make(devs[0], rdma_mode=True, ring_bytes=4096)
        b = make(devs[1], rdma_mode=True, ring_bytes=4096)
        # Note: ring size is what *B* advertises; B's interface config
        # governs the ring A writes into.
        got = []

        def server():
            fd = b.socket(SOCK_DGRAM, port=7100)
            while len(got) < 6:
                r = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
                assert r is not None
                got.append(r[0])

        def client():
            fd = a.socket(SOCK_DGRAM)
            # 6 x 1.5 KB through a 4 KB ring: several wraps.
            for i in range(6):
                a.sendto(fd, bytes([i]) * 1500, (1, 7100))
                yield 2 * MS  # consumer keeps up, as the design assumes

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert got == [bytes([i]) * 1500 for i in range(6)]

    def test_message_exceeding_ring_falls_back_to_sendrecv(self, world):
        tb, devs, make = world
        a = make(devs[0], rdma_mode=True, ring_bytes=2048,
                 pool_slot_bytes=65536)
        b = make(devs[1], rdma_mode=True, ring_bytes=2048,
                 pool_slot_bytes=65536)
        got = {}

        def server():
            fd = b.socket(SOCK_DGRAM, port=7101)
            got["r"] = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)

        def client():
            fd = a.socket(SOCK_DGRAM)
            a.sendto(fd, b"L" * 10_000, (1, 7101))  # > ring_bytes
            yield 0

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert got["r"][0] == b"L" * 10_000

    def test_message_exceeding_the_peers_smaller_ring_falls_back_to_sendrecv(
        self, world
    ):
        """The sender's own ring is larger than the one the peer
        advertised: a message too long for the peer's ring but not for a
        pool slot goes untagged; one longer than both raises EMSGSIZE at
        the sender, as in send/recv mode, and posts nothing."""
        tb, devs, make = world
        a = make(devs[0], rdma_mode=True)
        b = make(devs[1], rdma_mode=True, ring_bytes=4096)
        # The first send waits for the advertisement; the last fits neither.
        sizes = (6000, 100, 3000)
        got = []
        errors = []
        fds = {}

        def server():
            fds["b"] = fd = b.socket(SOCK_DGRAM, port=7102)
            for _ in range(len(sizes) + 1):
                r = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
                got.append(r and r[0])

        def client():
            fd = a.socket(SOCK_DGRAM)
            for size in sizes:
                a.sendto(fd, bytes([size & 0xFF]) * size, (1, 7102))
                yield 1 * MS
            try:
                a.sendto(fd, b"\x10" * 10_000, (1, 7102))
            except SocketError as exc:
                errors.append(str(exc))

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert got == [bytes([size & 0xFF]) * size for size in sizes] + [None]
        assert len(errors) == 1 and "EMSGSIZE" in errors[0]
        assert b._fds[fds["b"]].qp.rx.remote_access_errors == 0

    def test_oversize_datagram_waiting_for_the_advertisement_is_dropped(
        self, world
    ):
        """The first datagram to a peer waits for its ring advertisement,
        so no sendto is left to raise EMSGSIZE to: one that fits neither
        the advertised ring nor a receive slot is dropped and counted,
        and no Write-Record reaches the peer."""
        tb, devs, make = world
        a = make(devs[0], rdma_mode=True)
        b = make(devs[1], rdma_mode=True, ring_bytes=4096)
        got = []
        fds = {}

        def server():
            fds["b"] = fd = b.socket(SOCK_DGRAM, port=7103)
            for _ in range(2):
                r = yield b.recvfrom_future(fd, 65536, timeout_ns=1 * SEC)
                got.append(r and r[0])

        def client():
            fds["a"] = fd = a.socket(SOCK_DGRAM)
            assert a.sendto(fd, b"\x10" * 10_000, (1, 7103)) == 10_000
            yield 1 * MS
            a.sendto(fd, b"ok", (1, 7103))

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert got == [b"ok", None]
        assert a._fds[fds["a"]].oversize_drops == 1
        assert b._fds[fds["b"]].qp.rx.remote_access_errors == 0


class TestConcurrentPeers:
    def test_many_clients_one_server_socket(self, world):
        tb, devs, make = world
        a = make(devs[0], rdma_mode=True)
        b = make(devs[1], rdma_mode=True)
        sources = []

        def server():
            fd = b.socket(SOCK_DGRAM, port=7200)
            for _ in range(4):
                r = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
                assert r is not None
                sources.append(r[1])
                b.sendto(fd, b"ack:" + r[0][:4], r[1])

        def client(i, acks):
            fd = a.socket(SOCK_DGRAM)
            a.sendto(fd, bytes([i]) * 64, (1, 7200))
            r = yield a.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
            acks.append(r[0])

        acks = []
        srv = tb.sim.process(server())
        for i in range(4):
            tb.sim.process(client(i, acks))
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        tb.sim.run(until=tb.sim.now + 50 * MS)
        assert len(set(sources)) == 4     # four distinct peer addresses
        assert len(acks) == 4             # each got its own reply
        # The server registered one ring per peer (plus its scratch).
        assert len(b._fds) == 1


class TestInterceptorStream:
    def test_stream_interception_end_to_end(self, zero_testbed, zero_stacks):
        tb = zero_testbed
        devs = [RnicDevice(n) for n in zero_stacks]
        iw = [IwSocketInterface(d, pool_slots=4, pool_slot_bytes=8192)
              for d in devs]
        nat = [NativeSocketApi(n) for n in zero_stacks]
        ia = Interceptor(nat[0], iw[0], intercept_stream=True)
        ib = Interceptor(nat[1], iw[1], intercept_stream=True)
        result = {}

        def server():
            lfd = ib.socket(SOCK_STREAM)
            ib.listen(lfd, 8200)
            cfd = yield ib.accept_future(lfd)
            data = yield ib.recv_future(cfd, 1 << 16)
            ib.send(cfd, data[::-1])

        def client():
            fd = ia.socket(SOCK_STREAM)
            yield ia.connect_future(fd, (1, 8200))
            ia.send(fd, b"intercepted")
            result["got"] = yield ia.recv_future(fd, 1 << 16)

        tb.sim.process(server())
        done = tb.sim.process(client()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["got"] == b"detpecretni"
        # Traffic rode iWARP, not native TCP.
        assert zero_stacks[1].tcp.open_connections() >= 1  # MPA underneath
        assert devs[0].registry.registrations > 0

    def test_unknown_fd_raises(self, zero_stacks):
        nat = NativeSocketApi(zero_stacks[0])
        interceptor = Interceptor(nat, None)
        with pytest.raises(KeyError):
            interceptor.sendto(("bogus", 1), b"x", (1, 1))

    def test_mixed_routing(self, zero_testbed, zero_stacks):
        """Datagrams intercepted, streams native, in one interceptor."""
        tb = zero_testbed
        devs = [RnicDevice(n) for n in zero_stacks]
        iw = [IwSocketInterface(d, pool_slots=4, pool_slot_bytes=4096)
              for d in devs]
        nat = [NativeSocketApi(n) for n in zero_stacks]
        ia = Interceptor(nat[0], iw[0], intercept_dgram=True,
                         intercept_stream=False)
        ib = Interceptor(nat[1], iw[1], intercept_dgram=True,
                         intercept_stream=False)
        result = {}

        def server():
            dfd = ib.socket(SOCK_DGRAM, port=7300)
            lfd = ib.socket(SOCK_STREAM)
            ib.listen(lfd, 8300)
            r = yield ib.recvfrom_future(dfd, 4096, timeout_ns=5 * SEC)
            ib.sendto(dfd, b"dgram-ok", r[1])
            cfd = yield ib.accept_future(lfd)
            yield ib.recv_future(cfd, 4096)
            ib.send(cfd, b"stream-ok")

        def client():
            dfd = ia.socket(SOCK_DGRAM)
            ia.sendto(dfd, b"ping", (1, 7300))
            result["dgram"] = (yield ia.recvfrom_future(dfd, 4096, timeout_ns=5 * SEC))[0]
            sfd = ia.socket(SOCK_STREAM)
            yield ia.connect_future(sfd, (1, 8300))
            ia.send(sfd, b"hello")
            result["stream"] = yield ia.recv_future(sfd, 4096)

        tb.sim.process(server())
        done = tb.sim.process(client()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["dgram"] == b"dgram-ok"
        assert result["stream"] == b"stream-ok"
