"""iWARP socket interface (shim) tests: datagram, stream, interception."""

import gc
import weakref

import pytest

from repro.core.socketif import (
    Interceptor, IwSocketInterface, NativeSocketApi, SOCK_DGRAM, SOCK_STREAM,
    SocketError,
)
from repro.core.socketif import interface
from repro.core.verbs import RnicDevice, WcStatus
from repro.models.costs import zero_cost_model
from repro.obs.spans import spans
from repro.simnet.engine import MS, SEC
from repro.simnet.topology import build_testbed
from repro.simnet.trace import Tracer
from repro.transport.stacks import install_stacks

RUN_LIMIT = 600 * SEC


@pytest.fixture
def apis(zero_testbed, zero_stacks):
    devs = [RnicDevice(n) for n in zero_stacks]
    return (
        zero_testbed,
        IwSocketInterface(devs[0], rdma_mode=True, pool_slots=8, pool_slot_bytes=8192),
        IwSocketInterface(devs[1], rdma_mode=True, pool_slots=8, pool_slot_bytes=8192),
    )


@pytest.fixture
def sr_apis(zero_testbed, zero_stacks):
    devs = [RnicDevice(n) for n in zero_stacks]
    return (
        zero_testbed,
        IwSocketInterface(devs[0], rdma_mode=False, pool_slots=8, pool_slot_bytes=8192),
        IwSocketInterface(devs[1], rdma_mode=False, pool_slots=8, pool_slot_bytes=8192),
    )


def _echo_once(tb, a, b, payload):
    """b echoes one datagram; returns what a got back."""
    result = {}

    def server():
        fd = b.socket(SOCK_DGRAM, port=7000)
        got = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
        data, src = got
        b.sendto(fd, b"echo:" + data, src)

    def client():
        fd = a.socket(SOCK_DGRAM)
        a.sendto(fd, payload, (1, 7000))
        got = yield a.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
        result["data"] = got[0] if got else None

    tb.sim.process(server())
    done = tb.sim.process(client()).finished
    tb.sim.run_until(done, limit=RUN_LIMIT)
    return result["data"]


class TestDgram:
    def test_echo_write_record_mode(self, apis):
        tb, a, b = apis
        assert _echo_once(tb, a, b, b"payload") == b"echo:payload"

    def test_echo_sendrecv_mode(self, sr_apis):
        tb, a, b = sr_apis
        assert _echo_once(tb, a, b, b"payload") == b"echo:payload"

    def test_receive_completions_carry_pool_stags(self, sr_apis):
        """Pool receives are keyed by the MR's per-device stag, not a
        memory address, so every cqe span is the same in every process."""
        tb, a, b = sr_apis
        for host in tb.hosts:
            host.wr_tracer = Tracer(tb.sim)
        assert _echo_once(tb, a, b, b"payload") == b"echo:payload"
        for host, api in zip(tb.hosts, (a, b)):
            stags = {stag for sock in api._fds.values() for stag in sock.pool.slots}
            wr_ids = [rec.fields["wr_id"] for rec in spans(host.wr_tracer, stage="cqe", queue="rq")]
            assert wr_ids and set(wr_ids) <= stags

    def test_large_datagram_write_record(self, apis):
        tb, a, b = apis
        payload = bytes(i & 0xFF for i in range(50_000))
        assert _echo_once(tb, a, b, payload) == b"echo:" + payload

    def test_recvfrom_timeout_returns_none(self, apis):
        tb, a, _ = apis
        result = {}

        def client():
            fd = a.socket(SOCK_DGRAM)
            result["got"] = yield a.recvfrom_future(fd, 100, timeout_ns=5 * MS)

        done = tb.sim.process(client()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["got"] is None

    def test_bufsize_truncates(self, apis):
        tb, a, b = apis
        result = {}

        def server():
            fd = b.socket(SOCK_DGRAM, port=7001)
            got = yield b.recvfrom_future(fd, 4, timeout_ns=5 * SEC)
            result["got"] = got

        def client():
            fd = a.socket(SOCK_DGRAM)
            a.sendto(fd, b"0123456789", (1, 7001))
            yield 0

        tb.sim.process(client())
        done = tb.sim.process(server()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["got"][0] == b"0123"

    def test_oversized_untagged_datagram_rejected(self, sr_apis):
        _, a, _ = sr_apis
        fd = a.socket(SOCK_DGRAM)
        with pytest.raises(SocketError):
            a.sendto(fd, b"x" * 10_000, (1, 7000))  # > pool slot 8192

    def test_getsockname(self, apis):
        _, a, _ = apis
        fd = a.socket(SOCK_DGRAM, port=4321)
        assert a.getsockname(fd) == (0, 4321)

    def test_bad_fd_raises(self, apis):
        _, a, _ = apis
        with pytest.raises(SocketError):
            a.sendto(999, b"x", (1, 1))

    def test_close_releases_fd(self, apis):
        _, a, _ = apis
        fd = a.socket(SOCK_DGRAM)
        n = a.open_fds()
        a.close(fd)
        assert a.open_fds() == n - 1

    def test_one_advertisement_per_peer(self, apis):
        """§VI.B.1: buffers are not re-advertised per message."""
        tb, a, b = apis
        regs_before = {}

        def server():
            fd = b.socket(SOCK_DGRAM, port=7002)
            got = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
            assert got is not None
            # After the first message the peer's ring exists; no further
            # registrations may happen for subsequent messages.
            regs_before["n"] = b.device.registry.registrations
            for _ in range(4):
                got = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
                assert got is not None

        def client():
            fd = a.socket(SOCK_DGRAM)
            for i in range(5):
                a.sendto(fd, bytes([i]) * 100, (1, 7002))
                yield 1 * MS

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert b.device.registry.registrations == regs_before["n"]


    def test_close_deregisters_pool_and_rings(self, apis):
        """Closing a socket gives its receive pool and Write-Record rings
        back to the device; the flushed receives still complete."""
        tb, a, b = apis
        base = {api: len(api.device.registry) for api in (a, b)}
        fds = {}

        def server():
            fds[b] = fd = b.socket(SOCK_DGRAM, port=7003)
            got = yield b.recvfrom_future(fd, 65536, timeout_ns=5 * SEC)
            b.sendto(fd, got[0], got[1])

        def client():
            fds[a] = fd = a.socket(SOCK_DGRAM)
            a.sendto(fd, b"ring", (1, 7003))
            assert (yield a.recvfrom_future(fd, 65536, timeout_ns=5 * SEC))[0] == b"ring"

        tb.sim.process(server())
        tb.sim.run_until(tb.sim.process(client()).finished, limit=RUN_LIMIT)
        socks = {api: api._fds[fd] for api, fd in fds.items()}
        for api, sock in socks.items():
            # Pool plus one ring for the peer that wrote to it.
            assert len(sock._rings) == 1
            grown = len(api.device.registry) - base[api] - len(api._scratch)
            assert grown == len(sock.pool.slots) + 1
            api.close(fds[api])
        tb.sim.run(until=tb.sim.now + 1 * MS)
        for api, sock in socks.items():
            assert len(api.device.registry) == base[api] + len(api._scratch)
            slots = sock.pool.slots
            assert all(wr.sges[0].mr.invalidated for wr in slots.values())
            # The pool's drain callback took the first flushed receive;
            # the rest wait in the CQ, one per pool slot.
            flushed = sock.qp.rq_cq.poll(64)
            assert len(flushed) == len(slots) - 1
            assert all(wc.status is WcStatus.FLUSHED for wc in flushed)
            assert {wc.wr_id for wc in flushed} < set(slots)

    def test_a_closed_socket_is_freed_without_the_cycle_collector(self, sr_apis):
        """Once the pool has drained its last completion it lets go of
        the socket, so dropping a closed socket frees it at once."""
        tb, a, _ = sr_apis
        fd = a.socket(SOCK_DGRAM)
        sock = weakref.ref(a._fds[fd])
        gc.disable()
        try:
            a.close(fd)
            tb.sim.run(until=tb.sim.now + 1 * MS)
            assert sock() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("rdma_mode", [False, True])
    def test_close_while_every_slot_is_in_flight(self, testbed, stacks, rdma_mode):
        """A socket closed while its one slot's completion waits to be
        drained takes that arrival without reposting the slot or
        answering it (an advertisement request, in rdma_mode), instead
        of raising QpError out of the event loop."""
        sim = testbed.sim
        a, b = (IwSocketInterface(RnicDevice(n), rdma_mode=rdma_mode, pool_slots=1)
                for n in stacks)
        rfd = b.socket(SOCK_DGRAM, port=7004)
        sock = b._fds[rfd]
        cq = sock.qp.rq_cq
        push = cq.push

        def close_then_push(wc):
            # Queued ahead of the drain callback that push schedules.
            sim.call_at(sim.now, b.close, rfd)
            push(wc)

        cq.push = close_then_push
        a.sendto(a.socket(SOCK_DGRAM), b"x" * 200, (1, 7004))
        sim.run(until=sim.now + 1 * SEC)
        assert sock.qp.state == "ERROR"
        assert cq.completions_total == 1
        assert sock.qp.recv_posts == 1 and not sock.qp.rq
        assert sock._rings == {}
        assert all(wr.sges[0].mr.invalidated for wr in sock.pool.slots.values())


class TestStream:
    def test_connect_send_recv(self, apis):
        tb, a, b = apis
        result = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8080)
            cfd = yield b.accept_future(lfd)
            got = b""
            while len(got) < 10:
                got += yield b.recv_future(cfd, 1 << 16)
            b.send(cfd, got.upper())

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8080))
            a.send(fd, b"streamdata")
            result["got"] = yield a.recv_future(fd, 1 << 16)

        tb.sim.process(server())
        done = tb.sim.process(client()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["got"] == b"STREAMDATA"

    def test_large_stream_transfer(self, apis):
        tb, a, b = apis
        payload = bytes((i * 13) & 0xFF for i in range(300_000))
        result = {"got": b""}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8081)
            cfd = yield b.accept_future(lfd)
            while len(result["got"]) < len(payload):
                result["got"] += yield b.recv_future(cfd, 1 << 20)

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8081))
            a.send(fd, payload)

        srv = tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        assert result["got"] == payload

    def test_an_overrun_ends_receives_instead_of_raising(self, testbed, stacks):
        # With the paper's costs an 8 x 8 KB pool falls behind a 256 KB
        # send: a Send finds no posted receive, RC's terminate puts the
        # receiver's QP in ERROR, and the socket stops reposting into it.
        devs = [RnicDevice(n) for n in stacks]
        a, b = (IwSocketInterface(dev, pool_slots=8, pool_slot_bytes=8192)
                for dev in devs)
        payload = bytes((i * 13) & 0xFF for i in range(256 * 1024))
        result = {"got": b""}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8086)
            result["fd"] = cfd = yield b.accept_future(lfd)
            while True:
                chunk = yield b.recv_future(cfd, 1 << 20, timeout_ns=10 * SEC)
                if chunk is None:
                    break
                result["got"] += chunk
            result["end"] = testbed.sim.now
            result["later"] = yield b.recv_future(cfd, 1 << 20, timeout_ns=10 * SEC)

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8086))
            a.send(fd, payload)

        srv = testbed.sim.process(server())
        testbed.sim.process(client())
        testbed.sim.run_until(srv.finished, limit=RUN_LIMIT)
        got = result["got"]
        assert 0 < len(got) < len(payload) and got == payload[: len(got)]
        assert result["end"] < 1 * SEC  # ended by the error, not the timeout
        assert result["later"] is None
        with pytest.raises(SocketError):
            b.send(result["fd"], b"x")

    def test_close_deregisters_receive_pools(self, apis):
        tb, a, b = apis
        base = {api: len(api.device.registry) for api in (a, b)}
        fds = {}

        def server():
            fds["listen"] = lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8082)
            fds[b] = yield b.accept_future(lfd)

        def client():
            fds[a] = fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8082))

        srv = tb.sim.process(server())
        cli = tb.sim.process(client())
        tb.sim.run_until(srv.finished, limit=RUN_LIMIT)
        tb.sim.run_until(cli.finished, limit=RUN_LIMIT)
        for api in (a, b):
            assert len(api.device.registry) == base[api] + api.pool_slots
        for api, fd in ((a, fds[a]), (b, fds[b]), (b, fds["listen"])):
            api.close(fd)
        tb.sim.run(until=tb.sim.now + 1 * SEC)
        for api in (a, b):
            assert len(api.device.registry) == base[api]

    def test_satisfied_recv_cancels_its_timeout(self, apis, monkeypatch):
        """A receive that data satisfies leaves no live timer behind:
        the queue goes back to what it held before, and the timeout
        callback never runs, however long the simulation goes on."""
        tb, a, b = apis
        expired = []
        expire = interface._expire_waiter
        monkeypatch.setattr(
            interface, "_expire_waiter", lambda w: (expired.append(w), expire(w))
        )
        sim = tb.sim
        fds = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8083)
            fds[b] = yield b.accept_future(lfd)

        def client():
            fds[a] = fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8083))

        srv = sim.process(server())
        sim.process(client())
        sim.run_until(srv.finished, limit=RUN_LIMIT)
        sim.run(until=sim.now + 1 * SEC)
        idle = sim.pending()
        results = []
        for i in range(3):
            fut = b.recv_future(fds[b], 1 << 16, timeout_ns=2 * SEC)
            a.send(fds[a], b"ping%d" % i)
            results.append(sim.run_until(fut, limit=sim.now + 1 * SEC))
            sim.run(until=sim.now + 1 * SEC)
            assert sim.pending() == idle
        sim.run(until=sim.now + 10 * SEC)
        assert results == [b"ping0", b"ping1", b"ping2"]
        assert expired == []

    @pytest.mark.xfail(
        strict=True,
        reason="the socket interface never reports EOF: a stream recv "
        "whose peer closed waits out its timeout and resolves to None. "
        "A fix adds wire frames and moves perfbench's sip reference "
        "(sim_ns, fig11 final_bytes), so it waits for a benchmark change",
    )
    def test_recv_returns_eof_after_peer_close(self, apis):
        tb, a, b = apis
        sim = tb.sim
        fds = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8084)
            fds[b] = yield b.accept_future(lfd)

        def client():
            fds[a] = fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8084))

        srv = sim.process(server())
        sim.process(client())
        sim.run_until(srv.finished, limit=RUN_LIMIT)
        fut = b.recv_future(fds[b], 1 << 16, timeout_ns=10 * SEC)
        a.close(fds[a])
        assert sim.run_until(fut, limit=sim.now + 20 * SEC) == b""

    def test_zero_byte_send_puts_nothing_on_the_wire(self, apis):
        """Like a native TCP socket, ``send(fd, b"")`` returns 0 and posts
        nothing, so it spends no frame and no peer receive slot."""
        tb, a, b = apis
        sim = tb.sim
        fds = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8085)
            fds[b] = yield b.accept_future(lfd)

        def client():
            fds[a] = fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8085))

        srv = sim.process(server())
        sim.process(client())
        sim.run_until(srv.finished, limit=RUN_LIMIT)
        sim.run(until=sim.now + 1 * SEC)
        port = tb.hosts[0].port
        frames = port.tx_frames
        assert a.send(fds[a], b"") == 0
        sim.run(until=sim.now + 1 * SEC)
        assert port.tx_frames == frames
        fut = b.recv_future(fds[b], 1 << 16, timeout_ns=2 * SEC)
        a.send(fds[a], b"next")
        assert sim.run_until(fut, limit=sim.now + 1 * SEC) == b"next"

    def test_send_before_connect_raises(self, apis):
        _, a, _ = apis
        fd = a.socket(SOCK_STREAM)
        with pytest.raises(SocketError):
            a.send(fd, b"early")

    def test_stream_ops_on_dgram_fd_rejected(self, apis):
        _, a, _ = apis
        fd = a.socket(SOCK_DGRAM)
        with pytest.raises(SocketError):
            a.send(fd, b"x")


class TestReceivePools:
    """A socket's receive pool is registered as one CPU work item, so
    its size does not change how many events opening the socket costs."""

    @staticmethod
    def _events(slots, open_sockets):
        tb = build_testbed(2, costs=zero_cost_model())
        a, b = (
            IwSocketInterface(RnicDevice(n), rdma_mode=False, pool_slots=slots,
                              pool_slot_bytes=8192)
            for n in install_stacks(tb)
        )
        opened = open_sockets(a, b)
        tb.sim.run(until=1 * SEC)
        assert opened.done
        return tb.sim.events_processed

    @staticmethod
    def _open_dgram(a, b):
        a.socket(SOCK_DGRAM, port=7000)
        done = a.sim.future()
        done.set_result(None)
        return done

    @staticmethod
    def _connect_stream(a, b):
        lfd = b.socket(SOCK_STREAM)
        b.listen(lfd, 8090)
        b.accept_future(lfd)
        return a.connect_future(a.socket(SOCK_STREAM), (1, 8090))

    @pytest.mark.parametrize("open_sockets", ["_open_dgram", "_connect_stream"])
    def test_pool_size_leaves_event_count_unchanged(self, open_sockets):
        opener = getattr(self, open_sockets)
        assert self._events(1, opener) == self._events(32, opener)


class TestNativeAndInterceptor:
    def test_native_dgram_echo(self, zero_testbed, zero_stacks):
        tb = zero_testbed
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        assert _echo_once(tb, a, b, b"native") == b"echo:native"

    def test_native_satisfied_receive_leaves_no_live_timer(self, zero_testbed, zero_stacks):
        """A native receive that data satisfies cancels its timeout: the
        queue goes back to what it held before."""
        sim = zero_testbed.sim
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        fd_a, fd_b = a.socket(SOCK_DGRAM), b.socket(SOCK_DGRAM, port=7100)
        idle = sim.pending()
        fut = b.recvfrom_future(fd_b, 64)
        a.sendto(fd_a, b"native", (1, 7100))
        assert sim.run_until(fut, limit=RUN_LIMIT)[0] == b"native"
        sim.run(until=sim.now + 1 * SEC)
        assert sim.pending() == idle

    def test_native_stream(self, zero_testbed, zero_stacks):
        tb = zero_testbed
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        result = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8082)
            cfd = yield b.accept_future(lfd)
            data = yield b.recv_future(cfd, 100)
            b.send(cfd, data[::-1])

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8082))
            a.send(fd, b"abc")
            result["got"] = yield a.recv_future(fd, 100)

        tb.sim.process(server())
        done = tb.sim.process(client()).finished
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result["got"] == b"cba"

    def test_native_timed_out_recvfrom_loses_no_datagram(self, zero_testbed, zero_stacks):
        """A native receive that times out withdraws its waiter from the
        socket: the datagram the peer sends next goes to the next
        receive."""
        sim = zero_testbed.sim
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        fd_a, fd_b = a.socket(SOCK_DGRAM), b.socket(SOCK_DGRAM, port=7200)
        timed_out = b.recvfrom_future(fd_b, 64, timeout_ns=1 * MS)
        assert sim.run_until(timed_out, limit=RUN_LIMIT) is None
        a.sendto(fd_a, b"hello", (1, 7200))
        got = sim.run_until(b.recvfrom_future(fd_b, 64), limit=RUN_LIMIT)
        assert got[0] == b"hello"

    def test_native_timed_out_stream_recv_loses_no_bytes(self, zero_testbed, zero_stacks):
        """The stream counterpart: bytes sent after a timed-out
        ``recv_future`` reach the next one instead of vanishing."""
        tb = zero_testbed
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        result = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8083)
            cfd = yield b.accept_future(lfd)
            result["timed_out"] = yield b.recv_future(cfd, 100, timeout_ns=1 * MS)
            result["got"] = yield b.recv_future(cfd, 100)

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8083))
            yield 10 * MS
            a.send(fd, b"hello")

        done = tb.sim.process(server()).finished
        tb.sim.process(client())
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result == {"timed_out": None, "got": b"hello"}

    def test_native_short_stream_recv_keeps_the_rest_of_the_chunk(
        self, zero_testbed, zero_stacks
    ):
        """A stream receive smaller than the chunk that arrived leaves the
        chunk's tail for the next receive."""
        tb = zero_testbed
        a = NativeSocketApi(zero_stacks[0])
        b = NativeSocketApi(zero_stacks[1])
        result = {}

        def server():
            lfd = b.socket(SOCK_STREAM)
            b.listen(lfd, 8084)
            cfd = yield b.accept_future(lfd)
            result["head"] = yield b.recv_future(cfd, 5)
            result["tail"] = yield b.recv_future(cfd, 100, timeout_ns=50 * MS)

        def client():
            fd = a.socket(SOCK_STREAM)
            yield a.connect_future(fd, (1, 8084))
            a.send(fd, b"hello world")

        done = tb.sim.process(server()).finished
        tb.sim.process(client())
        tb.sim.run_until(done, limit=RUN_LIMIT)
        assert result == {"head": b"hello", "tail": b" world"}

    def test_interceptor_routes_dgram_to_iwarp(self, zero_testbed, zero_stacks):
        tb = zero_testbed
        devs = [RnicDevice(n) for n in zero_stacks]
        iw = [IwSocketInterface(d, pool_slots=4, pool_slot_bytes=4096) for d in devs]
        nat = [NativeSocketApi(n) for n in zero_stacks]
        # Intercept datagrams only.
        ia = Interceptor(nat[0], iw[0], intercept_dgram=True, intercept_stream=False)
        ib = Interceptor(nat[1], iw[1], intercept_dgram=True, intercept_stream=False)
        assert _echo_once(tb, ia, ib, b"through-shim") == b"echo:through-shim"
        # The iWARP devices saw the traffic (registrations happened).
        assert devs[0].registry.registrations > 0

    @pytest.mark.parametrize("intercept", [True, False], ids=["iwarp", "native"])
    def test_interceptor_getsockname_and_close_reach_the_backend(
        self, zero_stacks, intercept
    ):
        native = NativeSocketApi(zero_stacks[0])
        iwarp = IwSocketInterface(RnicDevice(zero_stacks[0]), pool_slots=4,
                                  pool_slot_bytes=4096)
        shim = Interceptor(native, iwarp, intercept_dgram=intercept)
        backend = iwarp if intercept else native
        fd = shim.socket(SOCK_DGRAM, port=7100)
        assert shim.getsockname(fd) == (0, 7100)
        assert backend.open_fds() == 1
        shim.close(fd)
        assert backend.open_fds() == 0

    @pytest.mark.parametrize("intercept", [True, False], ids=["iwarp", "native"])
    def test_interceptor_keeps_the_backends_receive_timeout(
        self, zero_testbed, zero_stacks, intercept
    ):
        """A datagram receive through the shim with no timeout given
        gives up after both backends' own default, 5 s."""
        sim = zero_testbed.sim
        iwarp = IwSocketInterface(RnicDevice(zero_stacks[1]), pool_slots=4,
                                  pool_slot_bytes=4096)
        shim = Interceptor(NativeSocketApi(zero_stacks[1]), iwarp,
                           intercept_dgram=intercept)
        fd = shim.socket(SOCK_DGRAM, port=7300)
        start = sim.now
        assert sim.run_until(shim.recvfrom_future(fd, 64), limit=start + 10 * SEC) is None
        assert sim.now - start == 5 * SEC

    def test_interceptor_passthrough_when_disabled(self, zero_testbed, zero_stacks):
        tb = zero_testbed
        nat = [NativeSocketApi(n) for n in zero_stacks]
        ia = Interceptor(nat[0], None)
        ib = Interceptor(nat[1], None)
        assert _echo_once(tb, ia, ib, b"plain") == b"echo:plain"
