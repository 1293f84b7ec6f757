"""Oracle property test for the NIC's one egress injection slot.

A :class:`NicPort` holds one injector (a loss model, a fault model or a
pipeline, or nothing), and a port with nothing attached admits a frame
inline.  The oracle port below keeps the earlier two-slot egress path
verbatim: a ``loss_model`` (``NoLoss`` by default) consulted first, then
an optional ``fault_model``, with loss models entering a pipeline
through the ``LossFault`` adapter, which is also kept verbatim, as is
the chaos recipe that used it.  Both ports are driven with the same
random frame sequence under each injector kind, and every observable
must be equal: what ``enqueue`` returned, the frames the peer received
and when, the port counters, the frame trace and the metrics snapshot.
"""

from typing import Iterable, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.obs import sim_registry
from repro.simnet.engine import Simulator
from repro.simnet.faults import (
    DelayJitter, Duplicate, Emission, FaultModel, FaultPipeline, LinkFlap, Reorder,
    seeded_chaos,
)
from repro.simnet.link import Link
from repro.simnet.loss import (
    BernoulliLoss, ExplicitLoss, GilbertElliottLoss, LossModel, NoLoss, PatternLoss,
)
from repro.simnet.nic import NicPort, cable
from repro.simnet.packet import Frame
from repro.simnet.trace import Tracer


# -- oracles: the two-slot egress path and the adapter it needed ---------------

class LossFault(FaultModel):
    """Adapter: run any :class:`~repro.simnet.loss.LossModel` inside a
    fault pipeline (so loss composes with reorder/dup/delay/flap)."""

    def __init__(self, loss: LossModel):
        super().__init__()
        self.loss = loss

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        if self.loss.should_drop(frame):
            return []
        return [(0, frame)]

    def reset(self) -> None:
        super().reset()
        self.loss.reset()


def oracle_chaos(
    seed: int,
    loss: LossModel = None,
    reorder_prob: float = 0.0,
    reorder_hold_ns: int = 0,
    dup_prob: float = 0.0,
    jitter_ns: int = 0,
    flap_windows: Iterable[Tuple[int, int]] = (),
) -> FaultPipeline:
    """Convenience builder for the chaos harness: compose whichever
    faults are enabled into one pipeline, all derived from ``seed``."""
    stages: List[FaultModel] = []
    if loss is not None:
        stages.append(LossFault(loss))
    if reorder_prob > 0.0:
        stages.append(Reorder(reorder_prob, reorder_hold_ns, seed=seed + 1))
    if dup_prob > 0.0:
        stages.append(Duplicate(dup_prob, seed=seed + 2))
    if jitter_ns > 0:
        stages.append(DelayJitter(jitter_ns, seed=seed + 3))
    windows = list(flap_windows)
    if windows:
        stages.append(LinkFlap(windows))
    if not stages:
        raise ValueError("no faults enabled")
    return FaultPipeline(*stages)


class OraclePort(NicPort):
    """A port with the two injection slots, ``loss_model`` then
    ``fault_model``."""

    METRICS = (
        ("simnet.port.tx_frames", "counter", "tx_frames"),
        ("simnet.port.tx_bytes", "counter", "tx_bytes"),
        ("simnet.port.rx_frames", "counter", "rx_frames"),
        ("simnet.port.rx_bytes", "counter", "rx_bytes"),
        ("simnet.port.drops_queue_full", "counter", "drops_queue_full"),
        ("simnet.port.drops_loss_model", "counter", "drops_loss_model"),
        ("simnet.port.drops_fault", "counter", "drops_fault"),
        ("simnet.port.dup_frames", "counter", "dup_frames"),
        ("simnet.port.held_frames", "counter", "held_frames"),
        ("simnet.port.queue_hwm", "gauge", "queue_hwm"),
        ("simnet.port.offered", "counter", "loss_model.seen"),
        ("simnet.faults.seen", "counter", "fault_model.seen"),
        ("simnet.faults.dropped", "counter", "fault_model.dropped"),
        (None, "table", "fault_model"),
    )

    fault_model: Optional[FaultModel] = None   # shadows the live property

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loss_model: LossModel = NoLoss()
        self.fault_model = None

    def enqueue(self, frame: Frame) -> bool:
        """Queue a frame for transmission.  Returns False if dropped.

        A frame held back by the fault model (delay/reorder) counts as
        accepted: it enters the FIFO when its hold time elapses.
        """
        if self.link is None:
            raise RuntimeError(f"port {self.name!r} is not cabled to a link")
        if self.loss_model.should_drop(frame):
            self.drops_loss_model += 1
            if self.sim.tracer:
                self.sim.tracer.record("drop.loss", port=self.name, frame=frame)
            return False
        if self.fault_model is None:
            return self._admit(frame)
        emissions = self.fault_model.admit(frame, self.sim.now)
        if not emissions:
            self.drops_fault += 1
            if self.sim.tracer:
                self.sim.tracer.record("drop.fault", port=self.name, frame=frame)
            return False
        if len(emissions) > 1:
            self.dup_frames += len(emissions) - 1
        accepted = False
        for delay, out in emissions:
            if delay <= 0:
                accepted = self._admit(out) or accepted
            else:
                self.held_frames += 1
                self.sim.call_at(self.sim.now + delay, self._admit, out)
                accepted = True
        return accepted

    def _admit(self, frame: Frame) -> bool:
        """Append to the egress FIFO (drop-tail) and kick the transmitter."""
        queue = self._queue
        depth = len(queue)
        if depth >= self.queue_frames:
            self.drops_queue_full += 1
            if self.sim.tracer:
                self.sim.tracer.record("drop.queue", port=self.name, frame=frame)
            return False
        queue.append(frame)
        if depth >= self.queue_hwm:
            self.queue_hwm = depth + 1
        if not self._transmitting:
            self._start_next()
        return True

    def set_loss_model(self, model: LossModel) -> None:
        self.loss_model = model

    def set_fault_model(self, model: Optional["FaultModel"]) -> None:
        """Attach a composable fault model (reorder/dup/delay/flap) at
        the same egress point as the loss model; None detaches."""
        self.fault_model = model


# -- the injector kinds, built afresh for each port ------------------------------

def _loss(pick: int, seed: int) -> LossModel:
    return [
        lambda: BernoulliLoss(0.3, seed=seed),
        lambda: GilbertElliottLoss(0.2, 0.4, loss_good=0.05, seed=seed),
        lambda: PatternLoss(3, offset=seed % 4),
        lambda: ExplicitLoss([1, 2, 5 + seed % 7]),
        lambda: NoLoss(),
    ][pick % 5]()


def _fault(pick: int, seed: int) -> FaultModel:
    return [
        lambda: Reorder(0.3, hold_ns=2_500, seed=seed),
        lambda: Duplicate(0.3, seed=seed),
        lambda: DelayJitter(2_000, spike_ns=9_000, spike_prob=0.1, seed=seed),
        lambda: LinkFlap([(4_000 + seed % 5_000, 20_000)]),
    ][pick % 4]()


def attach(port: NicPort, kind: str, pick: int, seed: int) -> None:
    oracle = isinstance(port, OraclePort)
    if kind == "loss":
        port.set_loss_model(_loss(pick, seed))
    elif kind == "fault":
        port.set_fault_model(_fault(pick, seed))
    elif kind == "pipeline":
        loss = _loss(pick, seed)
        port.set_fault_model(FaultPipeline(
            LossFault(loss) if oracle else loss,
            Duplicate(0.25, seed=seed + 1),
            Reorder(0.25, hold_ns=3_000, seed=seed + 2),
        ))
    elif kind == "chaos":
        chaos = oracle_chaos if oracle else seeded_chaos
        port.set_fault_model(chaos(
            seed, loss=BernoulliLoss(0.1, seed=seed), reorder_prob=0.2,
            reorder_hold_ns=3_000, dup_prob=0.2, jitter_ns=500,
            flap_windows=[(10_000, 12_000)],
        ))


class _Payload:
    PROTO = "x"

    def __init__(self, index: int):
        self.index = index


class _Sink:
    def __init__(self, sim: Simulator):
        self.sim = sim
        self.got: List[Tuple[int, int]] = []

    def on_frame(self, frame: Frame, port: NicPort) -> None:
        self.got.append((self.sim.now, frame.payload.index))


def observe(port_cls, kind, pick, seed, queue, traffic):
    sim = Simulator()
    registry = sim_registry(sim, enable=True)
    sim.tracer = Tracer(sim)
    sink = _Sink(sim)
    port = port_cls(sim, None, "p0", queue_frames=queue)
    peer = NicPort(sim, sink, "p1")
    cable(sim, port, peer, Link(bandwidth_bps=10e9, delay_ns=500, name="l"))
    attach(port, kind, pick, seed)
    returned: List[bool] = []
    t = 0
    for i, (gap, size) in enumerate(traffic):
        t += gap
        frame = Frame(0, 1, _Payload(i), size)
        sim.call_at(t, lambda f=frame: returned.append(port.enqueue(f)))
    sim.run()
    counters = {
        name: getattr(port, name)
        for name in ("drops_queue_full", "drops_loss_model", "drops_fault",
                     "dup_frames", "held_frames", "queue_hwm", "tx_frames")
    }
    trace = [
        (r.time, r.kind, r.fields["port"], r.fields["frame"].payload.index)
        for r in sim.tracer.records
    ]
    return returned, sink.got, counters, trace, registry.snapshot()


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(["none", "loss", "fault", "pipeline", "chaos"]),
    st.integers(0, 19),
    st.integers(0, 10_000),
    st.sampled_from([1, 2, 3, 8, 1000]),
    st.lists(st.tuples(st.integers(0, 3_000), st.integers(64, 1_518)), min_size=1, max_size=60),
)
def test_one_injection_slot_matches_the_two_slot_oracle(kind, pick, seed, queue, traffic):
    live = observe(NicPort, kind, pick, seed, queue, traffic)
    oracle = observe(OraclePort, kind, pick, seed, queue, traffic)
    returned, got, counters, trace, metrics = live
    assert returned == oracle[0]
    assert got == oracle[1]
    assert counters == oracle[2]
    assert trace == oracle[3]
    assert metrics == oracle[4]
    assert any(k.startswith("simnet.port.offered") for k in metrics)
    has_faults = any(k.startswith("simnet.faults.") for k in metrics)
    assert has_faults == (kind in ("fault", "pipeline", "chaos"))
