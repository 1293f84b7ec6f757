"""Tests for the MPI-over-datagram-iWARP extension."""

import struct

import pytest

from repro.apps.mpi import (
    ANY_SOURCE, ANY_TAG, EAGER_THRESHOLD, MpiError, MpiWorld,
)


def test_world_validation():
    with pytest.raises(MpiError):
        MpiWorld(1)


def test_eager_send_recv():
    world = MpiWorld(2)

    def main(comm):
        if comm.rank == 0:
            comm.send(b"eager-payload", 1, tag=5)
            return "sent"
        got = yield comm.recv(0, 5)
        return got

    results = world.run(main)
    assert results[1] == (b"eager-payload", 0, 5)


def test_tag_matching_out_of_order():
    world = MpiWorld(2)

    def main(comm):
        if comm.rank == 0:
            comm.send(b"A", 1, tag=1)
            comm.send(b"B", 1, tag=2)
            return None
        # Receive tag 2 first even though tag 1 arrives first.
        b = yield comm.recv(0, 2)
        a = yield comm.recv(0, 1)
        return (a[0], b[0])

    results = world.run(main)
    assert results[1] == (b"A", b"B")


def test_any_source_any_tag():
    world = MpiWorld(3)

    def main(comm):
        if comm.rank == 0:
            out = []
            for _ in range(2):
                got = yield comm.recv(ANY_SOURCE, ANY_TAG)
                out.append(got[1])
            return sorted(out)
        comm.send(b"x", 0, tag=comm.rank)
        return None

    results = world.run(main)
    assert results[0] == [1, 2]


def test_rendezvous_write_record_path():
    """Messages above the eager threshold use Write-Record rendezvous."""
    world = MpiWorld(2)
    payload = bytes(i & 0xFF for i in range(EAGER_THRESHOLD * 4))

    def main(comm):
        if comm.rank == 0:
            comm.send(payload, 1, tag=3)
            return None
        got = yield comm.recv(0, 3)
        return got[0]

    results = world.run(main)
    assert results[1] == payload
    # The data really travelled as Write-Record (tagged arrivals at rank 1).
    # Check via the receiver QP's statistics: no reassembly errors and the
    # message was not delivered through an eager slot (too large anyway).
    assert world.comms[1].qp.rx.drops_malformed == 0


def test_same_tag_rendezvous_messages_arrive_in_send_order():
    """MPI's non-overtaking rule on the rendezvous path: two large
    messages with one tag arrive in the order they were sent, and each
    sink is gone once its bytes are delivered."""
    world = MpiWorld(2)
    first, second = (bytes([k]) * (32 * 1024) for k in (1, 2))

    def main(comm):
        if comm.rank == 0:
            comm.send(first, 1, tag=7)
            comm.send(second, 1, tag=7)
            return None
        a = yield comm.recv(0, 7)
        b = yield comm.recv(0, 7)
        return [a[0], b[0]]

    results = world.run(main)
    assert results[1] == [first, second]
    # Both sinks are gone: rank 1 holds only its eager pool's slots.
    assert not any(world.comms[1]._rendezvous_sinks.values())
    assert len(world.comms[1].device.registry) == len(world.comms[1].pool.slots) == 64
    assert not any(world.comms[0]._rendezvous_payloads.values())


def test_send_regions_are_deregistered_once_posted():
    """Each send registers its payload for one WR and drops the region
    right after posting (the payload is gathered at post time), so 100
    eager sends and one rendezvous leave both registries at the eager
    pool's size."""
    world = MpiWorld(2)
    big = bytes(i & 0xFF for i in range(40_000))

    def main(comm):
        if comm.rank == 0:
            for i in range(100):
                comm.send(b"m%d" % i, 1, tag=1)
            comm.send(big, 1, tag=2)
            return None
        got = []
        for _ in range(100):
            got.append((yield comm.recv(0, 1))[0])
        last = yield comm.recv(0, 2)
        return got, last[0]

    results = world.run(main)
    assert results[1] == ([b"m%d" % i for i in range(100)], big)
    world.sim.run()
    assert [len(c.device.registry) for c in world.comms] == [64, 64]


def test_eager_receives_repost_the_pools_own_wrs():
    world = MpiWorld(2)
    n = 5

    def main(comm):
        if comm.rank == 0:
            for i in range(n):
                comm.send(bytes([i]), 1, tag=i)
            return None
        for i in range(n):
            yield comm.recv(0, i)
        return None

    world.run(main)
    comm = world.comms[1]
    pool_wrs = list(comm.pool.slots.values())
    assert comm.qp.recv_posts == 64 + n
    assert len(comm.qp.rq) == 64
    assert all(any(wr is slot for slot in pool_wrs) for wr in comm.qp.rq)


def test_barrier_synchronizes():
    world = MpiWorld(4)
    times = {}

    def main(comm):
        # Stagger ranks' arrival at the barrier.
        yield (comm.rank + 1) * 1_000_000
        yield from comm.barrier()
        times[comm.rank] = comm.sim.now
        return True

    world.run(main)
    # Nobody leaves the barrier before the slowest rank arrived (4 ms).
    assert min(times.values()) >= 4_000_000


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
def test_bcast_all_sizes(size):
    world = MpiWorld(size)

    def main(comm):
        data = b"broadcast!" if comm.rank == 2 % size else None
        data = yield from comm.bcast(data, root=2 % size)
        return data

    results = world.run(main)
    assert all(r == b"broadcast!" for r in results)


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_allreduce_sum(size):
    world = MpiWorld(size)

    def main(comm):
        total = yield from comm.allreduce_sum(float(comm.rank + 1))
        return total

    results = world.run(main)
    expected = size * (size + 1) / 2
    assert all(abs(r - expected) < 1e-9 for r in results)


def test_sendrecv_exchange():
    world = MpiWorld(2)

    def main(comm):
        peer = 1 - comm.rank
        got = yield comm.sendrecv(struct.pack("!i", comm.rank), peer, tag=4)
        return struct.unpack("!i", got[0])[0]

    results = world.run(main)
    assert results == [1, 0]


def test_bad_rank_rejected():
    world = MpiWorld(2)
    with pytest.raises(MpiError):
        world.comms[0].send(b"x", 7)
