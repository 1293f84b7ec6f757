"""Verbs-level microbenchmark harness.

Builds the paper's two-node testbed and runs the four §VI.A modes —
UD send/recv, UD RDMA Write-Record, RC send/recv, RC RDMA Write — as
ping-pong latency and unidirectional bandwidth measurements, with
optional ``tc``-style loss injection for the Figs. 7–8 sweeps.

Semantics notes (matching the paper's Fig. 3):

* RC RDMA Write needs a follow-up zero-byte send so the target learns
  the data is valid; the benchmark issues it per message and the target
  waits on it — that *is* the RC Write data path the paper measures.
* UD Write-Record targets poll their completion queue (with timeout)
  for the arrival record; no notification message exists.
* Send completions occur at LLP handoff, so the *sender* paces itself
  by CPU cost; bandwidth runs keep a fixed window of posted sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.verbs import CompletionQueue, RecvWR, RnicDevice, SendWR, Sge, WorkCompletion
from ..core.verbs.wr import WC_PARTIAL_MESSAGE, WR_RDMA_WRITE, WR_RDMA_WRITE_RECORD, WR_SEND
from ..memory.region import Access
from ..models.costs import CostModel
from ..models.platform import Platform
from ..obs import Registry
from ..simnet.engine import MS, SEC, Simulator
from ..simnet.faults import FaultModel
from ..simnet.loss import LossModel
from ..simnet.topology import Testbed, build_testbed
from ..simnet.trace import Tracer
from ..transport.stacks import install_stacks

MODES = ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write",
         "rd_sendrecv", "rd_write_record", "rcsctp_sendrecv")

#: CQ poll timeout used by all datagram receivers (the paper's "defined
#: timeout period", §IV.B.1).
POLL_TIMEOUT_NS = 300 * MS


class BenchError(RuntimeError):
    pass


#: Byte values 0..255, and the send pattern's period for host 0.
_BYTES = bytes(range(256))
_PERIOD = bytes(j * 31 & 0xFF for j in range(256))


def send_pattern(host: int, size: int) -> bytes:
    """The first ``size`` bytes of every harness send from ``host``:
    byte ``j`` is ``(j*31 + host) mod 256``.  The pattern has period 256
    in ``j``; host 0's period is shifted by ``host`` and tiled, so no
    byte is computed in Python."""
    shift = host & 0xFF
    period = _PERIOD.translate(_BYTES[shift:] + _BYTES[:shift])
    return (period * -(-size // 256))[:size]


@dataclass
class VerbsEndpointPair:
    """Two hosts, devices and QPs configured for one benchmark mode."""

    mode: str
    testbed: Testbed
    devices: List[RnicDevice]
    qps: list
    cqs: List[CompletionQueue]
    sinks: list = field(default_factory=list)    # remote-writable MRs (tagged modes)
    send_mrs: list = field(default_factory=list)
    recv_mrs: list = field(default_factory=list)
    #: Per host, how many leading send-buffer bytes hold send_pattern.
    staged: List[int] = field(default_factory=lambda: [0, 0])

    MAX_MSG = 1 << 20  # 1 MB, the largest size in Figs. 5-8

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        mode: str,
        platform: Optional[Platform] = None,
        costs: Optional[CostModel] = None,
        loss: Optional[LossModel] = None,
        loss_on_host: int = 0,
        markers: bool = True,
        rd_opts: Optional[dict] = None,
        metrics: Optional[bool] = None,
        sim: Optional[Simulator] = None,
        faults: Optional[FaultModel] = None,
    ) -> "VerbsEndpointPair":
        """``faults``, if given, sits in both hosts' egress slots
        before any frame is sent, so it also sees the RC handshake."""
        if mode not in MODES:
            raise BenchError(f"unknown mode {mode!r} (want one of {MODES})")
        tb = build_testbed(2, platform=platform, costs=costs, sim=sim, metrics=metrics)
        if loss is not None:
            tb.set_egress_loss(loss_on_host, loss)
        if faults is not None:
            for host in (0, 1):
                tb.set_egress_faults(host, faults)
        nets = install_stacks(tb)
        devices = [RnicDevice(n) for n in nets]
        pds = [d.alloc_pd() for d in devices]
        cqs = [d.create_cq(depth=1 << 16) for d in devices]
        pair = cls(mode=mode, testbed=tb, devices=devices, qps=[None, None], cqs=cqs)

        if mode.startswith(("ud", "rd")):
            reliable = mode.startswith("rd")
            pair.qps = [
                devices[i].create_ud_qp(
                    pds[i], cqs[i], port=9000 + i, reliable=reliable,
                    rd_opts=rd_opts if reliable else None,
                )
                for i in (0, 1)
            ]
        else:
            transport = "sctp" if mode.startswith("rcsctp") else "tcp"
            listener = devices[1].rc_listen(4791, pds[1], lambda: cqs[1],
                                            markers=markers, transport=transport)
            qp0 = devices[0].rc_connect((1, 4791), pds[0], cqs[0],
                                        markers=markers, transport=transport)
            accepted = listener.accept_future()
            tb.sim.run_until(qp0.ready, limit=2 * SEC)
            tb.sim.run_until(accepted, limit=2 * SEC)
            if qp0.ready.value is None:
                raise BenchError("RC connection failed")
            pair.qps = [qp0, accepted.value]

        # Message buffers and, for tagged modes, remote-writable sinks,
        # all registered by size.  Send bytes are written when they are
        # first sent (_post_message), so a pair holds only the pages its
        # messages use.
        for i in (0, 1):
            for mrs, access in ((pair.send_mrs, Access.local_only()),
                                (pair.recv_mrs, Access.local_only()),
                                (pair.sinks, Access.remote_write())):
                mrs.append(devices[i].reg_mr(cls.MAX_MSG, access, pds[i]))
        return pair

    @property
    def sim(self) -> Simulator:
        return self.testbed.sim

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    @property
    def registry(self) -> Registry:
        """The testbed's metrics registry (see :mod:`repro.obs`)."""
        return self.testbed.registry

    def metrics_snapshot(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Flat ``{series-key: value}`` snapshot of every registered
        metric — what the figure benchmarks attach to their saved rows.
        Empty when the pair was built without ``metrics=True``."""
        return self.registry.snapshot(prefix)

    def repair_stats(self, host: int = 0) -> Dict[str, int]:
        """Datagram-LLP repair counters for ``host``, read off the
        metrics registry (``transport.rudp.*`` samples) instead of
        poking RUDP socket internals.  Keys match the
        ``RudpSocket.stats()`` names (``retransmissions``,
        ``fast_retransmits``, ``backoff_events``, ...).  Requires
        ``build(..., metrics=True)``."""
        if not self.registry.enabled:
            raise BenchError("repair_stats requires build(..., metrics=True)")
        prefix = "transport.rudp."
        hostname = self.testbed.hosts[host].name
        out: Dict[str, int] = {}
        for s in self.registry.collect():
            if not s.name.startswith(prefix):
                continue
            labels = dict(s.labels)
            if labels.get("host") != hostname:
                continue
            key = s.name[len(prefix):]
            if "cause" in labels:
                key = f"{key}.{labels['cause']}"
            out[key] = out.get(key, 0) + int(s.value)
        return out

    def enable_spans(self) -> List[Tracer]:
        """Attach a WR-lifecycle span tracer to each host and return
        them (index = host index)."""
        tracers = []
        for h in self.testbed.hosts:
            if h.wr_tracer is None:
                h.wr_tracer = Tracer(self.sim)
            tracers.append(h.wr_tracer)
        return tracers

    def dest(self, i: int) -> Optional[Tuple[int, int]]:
        """Per-WR destination for datagram modes (None on RC)."""
        return self.qps[i].address if self.qps[i].is_datagram else None

    # ------------------------------------------------------------------
    # One-sided / two-sided message helpers (process style)
    # ------------------------------------------------------------------

    def _post_message(self, src: int, size: int, signaled: bool = False) -> None:
        """Post one message of ``size`` bytes from host ``src``."""
        staged = self.staged[src]
        if size > staged:  # write the send bytes on their first use
            self.send_mrs[src].view()[staged:size] = send_pattern(src, size)[staged:]
            self.staged[src] = size
        dst = 1 - src
        qp = self.qps[src]
        if self.mode.endswith("sendrecv"):
            qp.post_send(SendWR(
                opcode=WR_SEND,
                sges=[Sge(self.send_mrs[src], 0, size)],
                dest=self.dest(dst),
                signaled=signaled,
            ))
        elif self.mode.endswith("write_record"):
            qp.post_send(SendWR(
                opcode=WR_RDMA_WRITE_RECORD,
                sges=[Sge(self.send_mrs[src], 0, size)],
                dest=self.dest(dst),
                remote_stag=self.sinks[dst].stag,
                remote_offset=0,
                signaled=signaled,
            ))
        else:
            # rc_rdma_write: target-side visibility comes from polling the
            # flag byte at the end of the written extent — the
            # "lower-overhead method" of §IV.B.3 — so no second message.
            qp.post_send(SendWR(
                opcode=WR_RDMA_WRITE,
                sges=[Sge(self.send_mrs[src], 0, size)],
                remote_stag=self.sinks[dst].stag,
                remote_offset=0,
                signaled=signaled,
            ))

    def _arrival_future(self, host: int, size: int):
        """Future resolving when the next message lands at ``host``.

        send/recv + Write-Record: a data completion from the CQ.
        RC RDMA Write: the memory flag watch (plus a poll charge).
        """
        sim = self.sim
        if self.mode == "rc_rdma_write":
            fut = sim.future()
            sink = self.sinks[host]
            handle = {}

            def fire(_off, _len):
                sink.remove_write_watch(handle["h"])
                self.devices[host].host.cpu.charge(
                    self.devices[host].host.costs.poll_ns
                )
                if not fut.done:
                    fut.set_result(True)

            handle["h"] = sink.add_write_watch(max(size - 1, 0), 1, fire)
            return fut
        # CQ-based modes: wrap poll_wait, filtering to data completions.
        fut = sim.future()

        def poll() -> None:
            def on_wcs(wcs):
                if not wcs:
                    if not fut.done:
                        fut.set_result(False)  # timeout
                    return
                if self._is_data_completion(wcs[0]) and wcs[0].ok:
                    if not fut.done:
                        fut.set_result(True)
                else:
                    poll()

            self.cqs[host].poll_wait(timeout_ns=POLL_TIMEOUT_NS).add_callback(on_wcs)

        poll()
        return fut

    def _prepost_recvs(self, host: int, count: int, size: int) -> None:
        """Post receives: full buffers for send/recv; empty ones for the
        RC Write notify sends.  Write-Record needs none at all — that is
        the point of the operation."""
        for _ in range(count):
            self._post_one_recv(host, size)

    def _post_one_recv(self, host: int, size: int) -> None:
        if self.mode.endswith("sendrecv"):
            self.qps[host].post_recv(
                RecvWR(sges=[Sge(self.recv_mrs[host], 0, max(size, 1))])
            )
        elif self.mode == "rc_rdma_write":
            self.qps[host].post_recv(RecvWR(sges=[]))

    def _is_data_completion(self, wc: WorkCompletion) -> bool:
        if self.mode.endswith("write_record"):
            return wc.opcode is WR_RDMA_WRITE_RECORD
        return wc.opcode is WR_SEND

    # ------------------------------------------------------------------
    # Ping-pong latency (Fig. 5)
    # ------------------------------------------------------------------

    def pingpong_latency_us(self, size: int, iters: int = 60, warmup: int = 12) -> float:
        """One-way latency in microseconds (half the averaged RTT)."""
        if size > self.MAX_MSG:
            raise BenchError(f"message size {size} exceeds harness maximum")
        result = {}

        def echo_side():  # host 1: bounce every arrival back
            self._prepost_recvs(1, iters + warmup + 8, size)
            for _ in range(iters + warmup):
                arrived = yield self._arrival_future(1, size)
                if not arrived:
                    return
                self._post_message(1, size)

        def ping_side():
            self._prepost_recvs(0, iters + warmup + 8, size)
            samples = []
            for i in range(iters + warmup):
                t0 = self.sim.now
                fut = self._arrival_future(0, size)
                self._post_message(0, size)
                arrived = yield fut
                if not arrived:
                    raise BenchError("ping-pong timed out (lossless run)")
                if i >= warmup:
                    samples.append(self.sim.now - t0)
            result["latency_us"] = (sum(samples) / len(samples)) / 2 / 1000.0

        self.sim.process(echo_side())
        done = self.sim.process(ping_side()).finished
        self.sim.run_until(done, limit=600 * SEC)
        return result["latency_us"]

    # ------------------------------------------------------------------
    # Unidirectional bandwidth (Figs. 6-8)
    # ------------------------------------------------------------------

    def bandwidth_mbs(
        self,
        size: int,
        messages: int = 0,
        window: int = 64,
        count_partial_bytes: bool = True,
    ) -> Dict[str, float]:
        """Stream ``messages`` of ``size`` bytes from host 0 to host 1.

        Returns goodput in MB/s plus delivery statistics.  Under loss,
        send/recv counts only complete messages while Write-Record also
        banks partially-delivered bytes (``count_partial_bytes``) — the
        §VI.A.2 partial-placement payoff.
        """
        if messages <= 0:
            # Aim for ~8 MB transferred, at least 40 and at most 2000 msgs.
            messages = max(40, min(2000, (8 << 20) // max(size, 1)))
        stats = {"received_msgs": 0, "received_bytes": 0, "partial_msgs": 0,
                 "t_first": None, "t_last": None}
        sender_done = {"flag": False}

        def count(nbytes: int, partial: bool) -> None:
            now = self.sim.now
            if partial:
                stats["partial_msgs"] += 1
            else:
                stats["received_msgs"] += 1
            if nbytes:
                stats["received_bytes"] += nbytes
                if stats["t_first"] is None:
                    stats["t_first"] = now
                stats["t_last"] = now

        def sender():
            # LLP-handoff completions of signaled sends pace the window.
            outstanding = {"n": 0}
            sent = 0
            while sent < messages:
                if outstanding["n"] >= window:
                    wcs = yield self.cqs[0].poll_wait(timeout_ns=POLL_TIMEOUT_NS)
                    outstanding["n"] -= len(wcs)
                    continue
                self._post_message(0, size, signaled=True)
                outstanding["n"] += 1
                sent += 1
                yield 0  # let the event loop breathe between posts
            sender_done["flag"] = True

        def cq_receiver():
            # Real verbs bandwidth benchmarks prepost the whole run.
            self._prepost_recvs(1, messages + window, size)
            empty_polls = 0
            while True:
                wcs = yield self.cqs[1].poll_wait(timeout_ns=POLL_TIMEOUT_NS)
                if not wcs:
                    # A reliable LLP may be mid-RTO-backoff: allow a
                    # generous quiet period before calling the run over.
                    empty_polls += 1
                    if sender_done["flag"] and empty_polls >= 15:
                        return
                    continue
                empty_polls = 0
                wc = wcs[0]
                if wc.ok and self._is_data_completion(wc):
                    nbytes = size if not wc.validity else wc.validity.valid_bytes()
                    count(nbytes, partial=False)
                elif wc.status is WC_PARTIAL_MESSAGE and count_partial_bytes \
                        and self.mode.endswith("write_record"):
                    count(wc.byte_len, partial=True)
                if stats["received_msgs"] + stats["partial_msgs"] >= messages:
                    return

        def flag_receiver():
            # RC RDMA Write: each placement rewrites the sink; the flag
            # byte at the end of the extent marks message completion.
            done_fut = self.sim.future()
            sink = self.sinks[1]

            def fire(_off, _len):
                self.devices[1].host.cpu.charge(self.devices[1].host.costs.poll_ns)
                count(size, partial=False)
                if stats["received_msgs"] >= messages and not done_fut.done:
                    done_fut.set_result(True)

            handle = sink.add_write_watch(max(size - 1, 0), 1, fire)
            yield done_fut
            sink.remove_write_watch(handle)

        self.sim.process(sender())
        receiver = flag_receiver if self.mode == "rc_rdma_write" else cq_receiver
        rx_done = self.sim.process(receiver()).finished
        self.sim.run_until(rx_done, limit=3000 * SEC)

        if stats["t_first"] is None or stats["t_last"] == stats["t_first"]:
            return {"mbs": 0.0, **{k: v for k, v in stats.items() if not k.startswith("t_")}}
        elapsed_s = (stats["t_last"] - stats["t_first"]) / 1e9
        first_msg_bytes = min(stats["received_bytes"], size)
        mbs = (stats["received_bytes"] - first_msg_bytes) / elapsed_s / 1e6
        return {
            "mbs": mbs,
            "received_msgs": stats["received_msgs"],
            "received_bytes": stats["received_bytes"],
            "partial_msgs": stats["partial_msgs"],
            "sent_msgs": messages,
        }

