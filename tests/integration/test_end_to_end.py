"""Cross-layer integration tests: every layer at once, under stress."""


from repro.bench.claims import broken, load_results
from repro.bench.harness import VerbsEndpointPair, send_pattern
from repro.core.verbs import RecvWR, SendWR, Sge, WrOpcode
from repro.memory.region import Access
from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss

RUN_LIMIT = 3000 * SEC


class TestLatencyOrdering:
    """The paper's headline latency relationships hold by construction of
    the calibrated model; these tests pin them against regression.  The
    64 B values themselves are claims 1–2, checked live by
    tests/bench/test_bench_tools.py::TestCalibrationAnchors."""

    def test_small_message_ud_beats_rc(self):
        ud = VerbsEndpointPair.build("ud_sendrecv").pingpong_latency_us(64, iters=8)
        rc = VerbsEndpointPair.build("rc_sendrecv").pingpong_latency_us(64, iters=8)
        assert ud < rc

    def test_write_record_tracks_ud_sendrecv(self):
        sr = VerbsEndpointPair.build("ud_sendrecv").pingpong_latency_us(256, iters=8)
        wr = VerbsEndpointPair.build("ud_write_record").pingpong_latency_us(256, iters=8)
        assert abs(sr - wr) / sr < 0.1

    def test_midrange_crossover_rc_wins(self):
        """Fig. 5 medium panel: RC send/recv slightly best at 16-64 KB
        (claim 5, with live 32 KB points in place of the committed ones)."""
        results = load_results()
        for mode in ("ud_sendrecv", "rc_sendrecv"):
            results["fig05_medium"][mode]["32768"] = (
                VerbsEndpointPair.build(mode).pingpong_latency_us(32768, iters=6))
        assert broken(results, "5") == []

    def test_large_messages_ud_wins(self):
        """Fig. 5 large panel: UD better >= 128 KB."""
        ud = VerbsEndpointPair.build("ud_write_record").pingpong_latency_us(262144, iters=4)
        rc = VerbsEndpointPair.build("rc_sendrecv").pingpong_latency_us(262144, iters=4)
        assert ud < rc


class TestBandwidthOrdering:
    """Claims 7 and 8 with live Fig. 6 points in place of the committed
    ones."""

    @staticmethod
    def _overlay(name, fast, slow, size):
        results = load_results()
        fig06 = results["fig06_bandwidth"]
        bw = {mode: VerbsEndpointPair.build(mode).bandwidth_mbs(size)["mbs"]
              for mode in (fast, slow)}
        for mode, mbs in bw.items():
            fig06["series"][mode][str(size)] = mbs
        fig06["ratios"][name] = bw[fast] / bw[slow]
        return results

    def test_write_record_dominates_large_messages(self):
        """Fig. 6: WR-R best at 512 KB, RC Write worst by ~3.5x."""
        results = self._overlay("wrr_vs_rcw_512K", "ud_write_record", "rc_rdma_write", 524288)
        assert broken(results, "7") == []

    def test_ud_sendrecv_beats_rc_sendrecv(self):
        results = self._overlay("udsr_vs_rcsr_256K", "ud_sendrecv", "rc_sendrecv", 262144)
        assert broken(results, "8") == []


class TestLossBehaviour:
    def test_sendrecv_collapses_write_record_survives(self):
        """Figs. 7 vs 8 at 1 MB / 1 % loss: claim 12 with this seed's
        points in place of the committed ones."""
        size, rate = 1 << 20, 0.01
        sr = VerbsEndpointPair.build(
            "ud_sendrecv", loss=BernoulliLoss(rate, seed=3)
        ).bandwidth_mbs(size, messages=30)
        wr = VerbsEndpointPair.build(
            "ud_write_record", loss=BernoulliLoss(rate, seed=3)
        ).bandwidth_mbs(size, messages=30)
        assert sr["mbs"] < 30  # whole-message delivery collapsed
        results = load_results()
        results["fig08_loss_writerecord"][str(size)][str(rate)] = wr["mbs"]
        results["fig08_contrast"] = {"ud_sendrecv": sr["mbs"], "ud_write_record": wr["mbs"]}
        assert broken(results, "12") == []  # partial placement sustained

    def test_write_record_data_integrity_under_loss(self):
        """Every byte range a completion declares valid really holds the
        sender's bytes — across loss, fragmentation and segmentation."""
        pair = VerbsEndpointPair.build(
            "ud_write_record", loss=BernoulliLoss(0.02, seed=8)
        )
        sim = pair.sim
        size = 300_000
        sent_payload = send_pattern(0, size)
        completions = []

        def receiver():
            while len(completions) < 1:
                wcs = yield pair.cqs[1].poll_wait(timeout_ns=400 * MS)
                if not wcs:
                    return
                completions.append(wcs[0])

        def sender():
            pair._post_message(0, size)
            yield 0

        sim.process(sender())
        rx = sim.process(receiver()).finished
        sim.run_until(rx, limit=RUN_LIMIT)
        if completions:  # the LAST segment may itself have been lost
            wc = completions[0]
            for off, length in wc.validity.ranges():
                assert bytes(pair.sinks[1].view(off, length)) == \
                    sent_payload[off : off + length]

    def test_rd_mode_delivers_everything_under_loss(self):
        pair = VerbsEndpointPair.build(
            "rd_sendrecv", loss=BernoulliLoss(0.05, seed=5)
        )
        out = pair.bandwidth_mbs(4096, messages=50, window=8)
        assert out["received_msgs"] == 50


class TestScalability:
    def test_ud_memory_advantage_is_monotone(self):
        from repro.memory.accounting import FootprintModel

        m = FootprintModel()
        prev = 0.0
        for n in (10, 100, 1000, 10_000, 100_000):
            cur = m.improvement_percent(n)
            assert cur > prev
            prev = cur
        # Asymptote stays below the socket-only bound (app state dilutes).
        assert prev < m.socket_only_improvement_percent()

    def test_single_ud_qp_serves_many_peers_rc_needs_n_connections(self):
        """The connection-scalability contrast behind the paper's pitch."""
        from repro.core.verbs import RnicDevice
        from repro.simnet.topology import build_testbed
        from repro.models.costs import zero_cost_model
        from repro.transport.stacks import install_stacks

        tb = build_testbed(costs=zero_cost_model())
        nets = install_stacks(tb)
        devs = [RnicDevice(n) for n in nets]
        pdA, pdB = devs[0].alloc_pd(), devs[1].alloc_pd()
        cqB = devs[1].create_cq()
        server = devs[1].create_ud_qp(pdB, cqB, port=5000)
        dst = devs[1].reg_mr(1024, Access.local_only(), pdB)
        n_peers = 20
        for _ in range(n_peers):
            server.post_recv(RecvWR(sges=[Sge(dst)]))
        mr = devs[0].reg_mr(bytearray(b"hi"), Access.local_only(), pdA)
        for _ in range(n_peers):
            qp = devs[0].create_ud_qp(pdA, devs[0].create_cq())
            qp.post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(mr)],
                                dest=server.address, signaled=False))
        got = 0
        for _ in range(n_peers):
            fut = cqB.poll_wait(timeout_ns=1000 * MS)
            tb.sim.run_until(fut, limit=RUN_LIMIT)
            got += len(fut.value)
        assert got == n_peers
        # One UDP socket on the server side serves them all.
        assert nets[1].udp.bound_ports() == 1
        # Whereas TCP/RC would hold one connection per peer (sanity check
        # at transport level):
        assert nets[1].tcp.open_connections() == 0
