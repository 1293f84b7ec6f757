"""UDP socket/stack tests."""

import pytest

from repro.simnet.engine import MS
from repro.transport.ip import IpStack
from repro.transport.udp import AddressInUseError, MessageTooLongError, UDP_MAX_PAYLOAD, UdpError, UdpStack


@pytest.fixture
def udp_pair(zero_testbed):
    stacks = []
    for h in zero_testbed.hosts:
        ip = IpStack(h)
        stacks.append(UdpStack(h, ip))
    return zero_testbed, stacks


class TestSockets:
    def test_basic_delivery_with_source_address(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(4000)
        got = []
        rx.on_datagram = lambda d, src: got.append((d, src))
        tx = a.socket(5555)
        tx.sendto(b"hello", (1, 4000))
        tb.sim.run()
        assert got == [(b"hello", (0, 5555))]

    def test_ephemeral_ports_unique(self, udp_pair):
        _, (a, _) = udp_pair
        s1, s2 = a.socket(), a.socket()
        assert s1.port != s2.port

    def test_port_collision_rejected(self, udp_pair):
        _, (a, _) = udp_pair
        a.socket(1234)
        with pytest.raises(AddressInUseError):
            a.socket(1234)

    def test_port_reusable_after_close(self, udp_pair):
        _, (a, _) = udp_pair
        s = a.socket(1234)
        s.close()
        a.socket(1234)  # no error

    def test_oversized_datagram_rejected(self, udp_pair):
        _, (a, _) = udp_pair
        s = a.socket()
        with pytest.raises(MessageTooLongError):
            s.sendto(b"x" * (UDP_MAX_PAYLOAD + 1), (1, 1))

    def test_max_size_datagram_delivered(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(9)
        got = []
        rx.on_datagram = lambda d, s: got.append(len(d))
        a.socket().sendto(b"y" * UDP_MAX_PAYLOAD, (1, 9))
        tb.sim.run()
        assert got == [UDP_MAX_PAYLOAD]

    def test_send_on_closed_socket_rejected(self, udp_pair):
        _, (a, _) = udp_pair
        s = a.socket()
        s.close()
        with pytest.raises(UdpError):
            s.sendto(b"x", (1, 1))

    def test_no_listener_counted(self, udp_pair):
        tb, (a, b) = udp_pair
        a.socket().sendto(b"x", (1, 7777))
        tb.sim.run()
        assert b.rx_no_socket == 1

    def test_queue_and_poll(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(4000)
        a.socket().sendto(b"one", (1, 4000))
        a.socket().sendto(b"two", (1, 4000))
        tb.sim.run()
        assert rx.poll()[0] == b"one"
        assert rx.poll()[0] == b"two"
        assert rx.poll() is None

    def test_recv_future_immediate_and_deferred(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(4000)
        results = []

        def proc():
            data, src = yield rx.recv_future()
            results.append(data)
            data, src = yield rx.recv_future()
            results.append(data)

        tb.sim.process(proc())
        a.socket().sendto(b"first", (1, 4000))
        tb.sim.call_at(tb.sim.now + 2 * MS, lambda: a.socket().sendto(b"second", (1, 4000)))
        tb.sim.run()
        assert results == [b"first", b"second"]

    def test_rcvbuf_overflow_drops(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(4000)
        rx.rcvbuf_bytes = 1000
        tx = a.socket()
        for _ in range(5):
            tx.sendto(b"z" * 400, (1, 4000))
        tb.sim.run()
        assert rx.drops_rcvbuf == 3
        assert rx.rx_datagrams == 5  # all arrived, two buffered

    def test_uncharged_send_path(self, udp_pair):
        tb, (a, b) = udp_pair
        rx = b.socket(4000)
        got = []
        rx.on_datagram = lambda d, s: got.append(d)
        tx = a.socket()
        tx.sendto_uncharged(b"fast", (1, 4000))
        tb.sim.run()
        assert got == [b"fast"]
        assert tx.tx_datagrams == 1


class TestCosts:
    def test_send_charges_sender_cpu(self, testbed):
        ip = IpStack(testbed.hosts[0])
        udp = UdpStack(testbed.hosts[0], ip)
        IpStack(testbed.hosts[1])  # receiver IP so frames don't error
        s = udp.socket()
        before = testbed.hosts[0].cpu.busy_ns
        s.sendto(b"x" * 1000, (1, 5))
        testbed.sim.run()
        charged = testbed.hosts[0].cpu.busy_ns - before
        costs = testbed.costs
        expected = (
            costs.syscall_ns + costs.copy_ns(1000) + costs.udp_tx_fixed_ns
            + costs.ip_tx_per_frag_ns
        )
        assert charged == expected

    def test_receive_charges_receiver_cpu(self, testbed):
        ip0 = IpStack(testbed.hosts[0])
        udp0 = UdpStack(testbed.hosts[0], ip0)
        ip1 = IpStack(testbed.hosts[1])
        udp1 = UdpStack(testbed.hosts[1], ip1)
        udp1.socket(9)
        udp0.socket().sendto(b"x" * 1000, (1, 9))
        testbed.sim.run()
        costs = testbed.costs
        expected = (
            costs.udp_rx_fixed_ns + costs.copy_ns(1000)
            + costs.ip_rx_per_frag_ns + costs.interrupt_ns
        )
        assert testbed.hosts[1].cpu.busy_ns == expected
