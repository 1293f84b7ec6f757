"""Network interface with a FIFO egress queue.

The NIC is where the paper's loss injection lives (a ``tc`` FIFO queue in
front of the hardware, §VI.A.2), so the egress path is modelled
explicitly:

1. the protocol stack enqueues a frame: the port's one injector (a loss
   model, a fault model or a pipeline of them), if one is attached,
   drops, holds or duplicates it, and the FIFO drops it tail-first if
   full — both before any wire time is spent, like ``tc``;
2. when the transmitter is idle the head frame is serialized for
   ``wire_size * 8 / bandwidth``;
3. after propagation delay the frame arrives at the link peer's
   ``on_frame``.

Reception is passive: arriving frames are handed to the owner (host or
switch) immediately; receive-side CPU costs are charged by the protocol
stacks, which know what processing each frame actually needs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..obs import sim_registry
from .engine import Simulator
from .faults import FaultModel
from .link import Link
from .loss import LossModel
from .packet import Frame

#: Maximum number of back-to-back frames whose serialization-finish
#: events are scheduled in one go when the transmitter wakes up.
TX_BATCH = 8

_LOSS_DROP = ("drop.loss", "drops_loss_model")
_FAULT_DROP = ("drop.fault", "drops_fault")


class NicPort:
    """One port: egress queue + transmitter + attachment to a link."""

    #: Exported series (see :mod:`repro.obs.metrics`), labelled port: the
    #: port's counters, one series each, and an attached fault model's
    #: series.
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
        ("simnet.port.offered", "counter", "offered"),
        ("simnet.faults.seen", "counter", "fault_model.seen"),
        ("simnet.faults.dropped", "counter", "fault_model.dropped"),
        (None, "table", "fault_model"),
    )

    def __init__(
        self,
        sim: Simulator,
        owner,
        name: str = "nic",
        queue_frames: int = 1000,
    ):
        if queue_frames < 1:
            raise ValueError(f"queue must hold at least one frame, got {queue_frames}")
        self.sim = sim
        self.owner = owner                     # object with .on_frame(frame, port)
        self.name = name
        self.queue_frames = queue_frames
        self.link: Optional[Link] = None
        #: The one egress injection slot (None: nothing is called per
        #: frame), and the trace kind and counter of a frame it drops.
        self.injector: Optional[FaultModel] = None
        self._drop = _FAULT_DROP
        self._queue: Deque[Frame] = deque()
        self._transmitting = False
        self._batch_left = 0               # finish events outstanding in the batch
        self._peer: Optional["NicPort"] = None  # lazily cached link peer
        # Counters for tests and reports.
        self.offered = 0                       # frames given to enqueue
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.drops_queue_full = 0
        self.drops_loss_model = 0
        self.drops_fault = 0
        self.dup_frames = 0
        self.held_frames = 0
        self.queue_hwm = 0                     # egress queue high-water mark
        sim_registry(sim).watch(self, {"port": name})

    # -- egress -----------------------------------------------------------

    def enqueue(self, frame: Frame) -> bool:
        """Queue a frame for transmission.  Returns False if dropped.

        A frame held back by the injector (delay/reorder) counts as
        accepted: it enters the FIFO when its hold time elapses.
        """
        if self.link is None:
            raise RuntimeError(f"port {self.name!r} is not cabled to a link")
        self.offered += 1
        injector = self.injector
        if injector is None:
            # Nothing attached: the body of _admit, inline.
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
        emissions = injector.admit(frame, self.sim.now)
        if not emissions:
            kind, counter = self._drop
            setattr(self, counter, getattr(self, counter) + 1)
            if self.sim.tracer:
                self.sim.tracer.record(kind, port=self.name, frame=frame)
            return False
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

    def _start_next(self) -> None:
        """Wake the transmitter: serialize the head frame and pre-schedule
        finish events for up to :data:`TX_BATCH` back-to-back frames.

        Only the head frame leaves the FIFO here; each successor is
        popped by its predecessor's ``_finish_tx`` — the exact instant
        its own serialization starts — so drop-tail occupancy is
        identical to a chained one-frame-at-a-time scheduler.  The
        FIFO must not be empty.
        """
        queue = self._queue
        self._transmitting = True
        sim = self.sim
        link = self.link
        n = len(queue)
        if n > TX_BATCH:
            n = TX_BATCH
        self._batch_left = n
        # The link's memo is read directly; serialization_ns() only
        # fills it on a miss.
        ser = link._ser_cache
        finish = self._finish_tx
        t = sim.now
        for i in range(n):
            frame = queue.popleft() if i == 0 else queue[i - 1]
            size = frame.wire_size
            ns = ser.get(size)
            t += link.serialization_ns(size) if ns is None else ns
            sim.call_at(t, finish, frame)

    def _finish_tx(self, frame: Frame) -> None:
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size
        sim = self.sim
        if sim.tracer:
            sim.tracer.record("tx", port=self.name, frame=frame)
        link = self.link
        peer = self._peer
        if peer is None:
            peer = self._peer = link.peer_of(self)
        sim.call_at(sim.now + link.delay_ns, peer.deliver, frame)
        self._batch_left -= 1
        if self._batch_left:
            # The successor's serialization starts this instant; it exits
            # the FIFO now (its finish event is already on the heap).
            self._queue.popleft()
        elif self._queue:
            self._start_next()
        else:
            self._transmitting = False

    # -- ingress ----------------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        """Called by the link when a frame fully arrives at this port."""
        self.rx_frames += 1
        self.rx_bytes += frame.wire_size
        if self.sim.tracer:
            self.sim.tracer.record("rx", port=self.name, frame=frame)
        self.owner.on_frame(frame, self)

    # -- configuration ----------------------------------------------------

    @property
    def fault_model(self) -> Optional[FaultModel]:
        """The injector unless a loss model fills the slot."""
        return None if self._drop is _LOSS_DROP else self.injector

    def set_loss_model(self, model: Optional[LossModel]) -> None:
        """Fill the slot with a loss model (its drops count in
        ``drops_loss_model`` and trace as ``drop.loss``); None empties it."""
        self._attach(model, _LOSS_DROP)

    def set_fault_model(self, model: Optional[FaultModel]) -> None:
        """Fill the slot with a fault model or pipeline (its drops count
        in ``drops_fault`` and trace as ``drop.fault``); None empties it."""
        self._attach(model, _FAULT_DROP)

    def _attach(self, model: Optional[FaultModel], drop: Tuple[str, str]) -> None:
        if self.injector is not None and drop is not self._drop:
            if model is None:
                return                         # nothing of this kind to detach
            raise ValueError(f"port {self.name!r}: compose loss and faults in one FaultPipeline")
        self.injector, self._drop = model, drop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NicPort {self.name!r} q={len(self._queue)} tx={self.tx_frames} rx={self.rx_frames}>"


def cable(sim: Simulator, port_a: NicPort, port_b: NicPort, link: Link) -> Link:
    """Wire two ports together with ``link``."""
    link.attach(port_a, port_b)
    port_a.link = link
    port_b.link = link
    sim_registry(sim).watch(link, {"link": link.name or f"{port_a.name}-{port_b.name}"})
    return link
