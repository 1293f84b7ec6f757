"""The one passive-open Listener, on TCP and on SCTP.

Both stacks build the connection (TCP on a SYN, SCTP on a valid COOKIE
ECHO) and hand it to the same :class:`repro.transport.Listener`; these
checks hold for either.
"""

import pytest

from repro.simnet.engine import SEC
from repro.transport import Listener
from repro.transport.stacks import install_stacks

PORT = 7000


@pytest.fixture(params=["tcp", "sctp"])
def pair(request, zero_testbed):
    """(sim, client stack, server stack) of one transport."""
    nets = install_stacks(zero_testbed)
    return (zero_testbed.sim, getattr(nets[0], request.param),
            getattr(nets[1], request.param))


def _connect(sim, client, local_port):
    conn = client.connect((1, PORT), local_port=local_port)
    sim.run_until(conn.established, limit=5 * SEC)
    return conn


def test_connections_established_before_accept_come_out_in_order(pair):
    sim, client, server = pair
    listener = server.listen(PORT)
    assert isinstance(listener, Listener)
    # The higher port connects first, so port order cannot pass for it.
    _connect(sim, client, 6001)
    _connect(sim, client, 6000)
    first, second = listener.accept_future(), listener.accept_future()
    sim.run_until(second, limit=sim.now + SEC)
    assert [first.value.remote, second.value.remote] == [(0, 6001), (0, 6000)]


def test_waiting_accept_gets_the_next_connection(pair):
    sim, client, server = pair
    accepted = server.listen(PORT).accept_future()
    assert not accepted.done
    _connect(sim, client, 6002)
    sim.run_until(accepted, limit=sim.now + SEC)
    assert accepted.value.remote == (0, 6002)


def test_close_frees_the_port(pair):
    _, _, server = pair
    listener = server.listen(PORT)
    with pytest.raises(Exception, match="already listening"):
        server.listen(PORT)
    listener.close()
    assert server.listen(PORT) is not listener
