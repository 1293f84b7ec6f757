"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark module regenerates one figure of the paper's evaluation:
it runs the simulated experiment once (simulations are deterministic, so
``benchmark.pedantic`` with a single round), writes the raw data to
``results/<figure>.json`` and then calls ``repro.bench.claims.check``,
which prints the figure's EXPERIMENTS.md tables and claim rows and
fails on a broken bound.
"""

from repro.apps.streaming import StreamingClient, StreamingServer
from repro.bench.harness import VerbsEndpointPair
from repro.core.socketif import IwSocketInterface, NativeSocketApi
from repro.core.verbs import RnicDevice
from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

LOSS_RATES = (0.001, 0.005, 0.01, 0.05)


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def loss_sweep(mode, sizes):
    """Figs. 7 and 8: MB/s by message size and Bernoulli loss rate."""
    data = {}
    for size in sizes:
        data[str(size)] = {}
        for rate in LOSS_RATES:
            pair = VerbsEndpointPair.build(mode, loss=BernoulliLoss(rate, seed=11))
            out = pair.bandwidth_mbs(size, messages=max(30, min(400, (4 << 20) // size)))
            data[str(size)][rate] = round(out["mbs"], 1)
    return data


def buffering_ms(mode, media, prebuffer, native=False, rdma_mode=True, paced=False):
    """Figs. 9 and §VI.B.2: initial buffering time (ms) of one streaming
    session, over the socket shim or the native stack, on a fresh testbed."""
    tb = build_testbed()
    nets = install_stacks(tb)
    if native:
        api_s, api_c = NativeSocketApi(nets[0]), NativeSocketApi(nets[1])
    else:
        devs = [RnicDevice(n) for n in nets]
        api_s = IwSocketInterface(devs[0], rdma_mode=rdma_mode,
                                  pool_slots=64, pool_slot_bytes=4096)
        api_c = IwSocketInterface(devs[1], rdma_mode=rdma_mode,
                                  pool_slots=64, pool_slot_bytes=65536)
    server = StreamingServer(api_s, tb.hosts[0], 5004, media, mode, paced=paced)
    server.start()
    client = StreamingClient(api_c, tb.hosts[1], (0, 5004), media, mode,
                             prebuffer_bytes=prebuffer)
    proc = client.run()
    tb.sim.run_until(proc.finished, limit=600 * SEC)
    assert not client.failed
    return client.buffering_time_ms
