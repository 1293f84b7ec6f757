"""Streaming application tests (the Fig. 9 workload)."""

import pytest

from repro.bench.claims import broken, load_results
from repro.apps.streaming import (
    MediaSource, StreamingClient, StreamingServer, UDP_MEDIA_PAYLOAD,
)
from repro.core.socketif import IwSocketInterface, NativeSocketApi
from repro.core.verbs import RnicDevice
from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

RUN_LIMIT = 600 * SEC


def _run_session(mode, rdma_mode=True, native=False, prebuffer=256 * 1024,
                 loss=None, paced=False):
    tb = build_testbed()
    nets = install_stacks(tb)
    media = MediaSource(bitrate_bps=8e6, duration_s=10)
    if native:
        api_s, api_c = NativeSocketApi(nets[0]), NativeSocketApi(nets[1])
    else:
        devs = [RnicDevice(n) for n in nets]
        api_s = IwSocketInterface(devs[0], rdma_mode=rdma_mode,
                                  pool_slots=32, pool_slot_bytes=4096)
        api_c = IwSocketInterface(devs[1], rdma_mode=rdma_mode,
                                  pool_slots=32, pool_slot_bytes=65536)
    if loss is not None:
        tb.set_egress_loss(0, loss)
    server = StreamingServer(api_s, tb.hosts[0], 5004, media, mode, paced=paced)
    server.start()
    client = StreamingClient(api_c, tb.hosts[1], (0, 5004), media, mode,
                             prebuffer_bytes=prebuffer)
    proc = client.run()
    tb.sim.run_until(proc.finished, limit=RUN_LIMIT)
    return client, server


class TestMediaSource:
    def test_total_bytes(self):
        m = MediaSource(bitrate_bps=8e6, duration_s=10)
        assert m.total_bytes == 10_000_000

    def test_packet_content_deterministic(self):
        m = MediaSource()
        assert m.packet(5) == m.packet(5)
        assert m.packet(5) != m.packet(6)
        assert len(m.packet(0)) == UDP_MEDIA_PAYLOAD

    def test_last_packet_short(self):
        m = MediaSource(bitrate_bps=8_000, duration_s=1)  # 1000 bytes
        sizes = [len(m.packet(i)) for i in range(m.packet_count())]
        assert sum(sizes) == m.total_bytes

    def test_out_of_range_packet(self):
        m = MediaSource(bitrate_bps=8_000, duration_s=1)
        with pytest.raises(IndexError):
            m.packet(m.packet_count())

    def test_validation(self):
        with pytest.raises(ValueError):
            MediaSource(bitrate_bps=0)


class TestStreaming:
    def test_udp_prebuffer_fills(self):
        client, server = _run_session("udp")
        assert not client.failed
        assert client.bytes_buffered >= 256 * 1024
        assert client.buffering_time_ms > 0

    def test_http_prebuffer_fills(self):
        client, _ = _run_session("http")
        assert not client.failed
        assert client.bytes_buffered >= 256 * 1024

    def test_udp_faster_than_http(self):
        """Fig. 9's qualitative claim at small scale."""
        udp_client, _ = _run_session("udp")
        http_client, _ = _run_session("http")
        assert udp_client.buffering_time_ms < http_client.buffering_time_ms

    def test_sendrecv_and_write_record_equivalent_through_shim(self):
        """§VI.B.1: 'almost identical in terms of performance' (claim 15,
        with this session's times in place of the committed Fig. 9 ones)."""
        sr, _ = _run_session("udp", rdma_mode=False)
        wr, _ = _run_session("udp", rdma_mode=True)
        results = load_results()
        results["fig09_vlc"]["ud_sendrecv_ms"] = sr.buffering_time_ms
        results["fig09_vlc"]["ud_write_record_ms"] = wr.buffering_time_ms
        assert broken(results, "15") == []

    def test_native_udp_works(self):
        client, _ = _run_session("udp", native=True)
        assert not client.failed

    def test_shim_overhead_small_when_paced(self):
        nat, _ = _run_session("udp", native=True, paced=True, prebuffer=128 * 1024)
        shim, _ = _run_session("udp", rdma_mode=True, paced=True, prebuffer=128 * 1024)
        results = load_results()
        results["shim_overhead"]["overhead_percent"] = (
            100 * (shim.buffering_time_ms / nat.buffering_time_ms - 1))
        assert broken(results, "16") == []  # claim 16, with this session's overhead

    def test_udp_tolerates_loss(self):
        client, _ = _run_session(
            "udp", loss=BernoulliLoss(0.01, seed=2), prebuffer=256 * 1024,
        )
        # Loss-tolerant: the session ends (possibly slightly short) and
        # most bytes arrived.
        assert client.bytes_buffered > 0.9 * 256 * 1024

    def test_server_statistics(self):
        client, server = _run_session("udp")
        assert server.clients_served == 1
        assert server.bytes_served >= client.bytes_buffered
