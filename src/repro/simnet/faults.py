"""Composable fault injection at the NIC egress queue.

Loss (:mod:`repro.simnet.loss`) models the paper's ``tc`` drop
configuration; real networks also **reorder**, **duplicate**, **delay**
and **flap**.  The models here express those faults at the same
injection point — the NIC egress queue, before any wire time is spent —
so every experiment that sweeps loss can sweep the rest of the failure
space too (the netem feature set, seeded and reproducible).  A loss
model is itself a fault stage: it maps a frame to ``[]`` or
``[(0, frame)]``.

A :class:`FaultModel` maps one offered frame to zero or more scheduled
emissions ``(delay_ns, frame)``:

* ``[]`` — the frame is dropped (link down, random early drop, ...);
* ``[(0, frame)]`` — pass-through;
* ``[(d, frame)]`` with ``d > 0`` — the frame is held for ``d`` ns
  before entering the egress FIFO, letting later frames overtake it
  (netem-style delay/reorder);
* ``[(0, frame), (0, frame)]`` — duplication.

Models compose with :class:`FaultPipeline`, which feeds each emission of
one stage through the next and accumulates hold times.  Every model
keeps the same ``seen``/``dropped`` counters, plus the model-specific
ones its ``METRICS`` table declares (``reordered``, ``duplicated``,
``delayed``).  All randomness comes from per-model seeded
:class:`random.Random` instances, so chaos runs are bit-for-bit
reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from .packet import Frame

#: One scheduled emission: (extra delay before entering the egress
#: queue, the frame itself).
Emission = Tuple[int, Frame]


class FaultModel:
    """Base class: maps one offered frame to scheduled emissions."""

    #: Model-specific series (see :mod:`repro.obs.metrics`), read under
    #: the labels of the NIC port the model is attached to; the port
    #: declares the ``seen``/``dropped`` pair every model keeps.
    METRICS: Tuple[Tuple[Any, ...], ...] = ()

    def __init__(self) -> None:
        self.seen = 0
        self.dropped = 0

    def admit(self, frame: Frame, now: int) -> List[Emission]:
        """Offer ``frame`` to the model at simulated time ``now``."""
        self.seen += 1
        out = self._admit(frame, now)
        if not out:
            self.dropped += 1
        return out

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        raise NotImplementedError

    def _counters(self) -> List[str]:
        return ["seen", "dropped"] + [row[2] for row in self.METRICS if row[1] == "counter"]

    def reset(self) -> None:
        """Restore the model to its initial state (reseeding RNGs)."""
        for name in self._counters():
            setattr(self, name, 0)


class DelayJitter(FaultModel):
    """Random per-frame hold time: uniform jitter in
    ``[0, jitter_ns]`` plus, with probability ``spike_prob``, a latency
    spike of ``spike_ns`` (a GC pause, a congested queue upstream...)."""

    METRICS = (
        ("simnet.faults.delayed", "counter", "delayed"),
        ("simnet.faults.spikes", "counter", "spikes"),
    )

    def __init__(
        self,
        jitter_ns: int,
        spike_ns: int = 0,
        spike_prob: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        if jitter_ns < 0 or spike_ns < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0, 1], got {spike_prob}")
        self.jitter_ns = int(jitter_ns)
        self.spike_ns = int(spike_ns)
        self.spike_prob = spike_prob
        self.seed = seed
        self._rng = random.Random(seed ^ 0xD31A)
        self.delayed = 0
        self.spikes = 0

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        delay = self._rng.randrange(self.jitter_ns + 1) if self.jitter_ns else 0
        if self.spike_ns and self._rng.random() < self.spike_prob:
            delay += self.spike_ns
            self.spikes += 1
        if delay:
            self.delayed += 1
        return [(delay, frame)]

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed ^ 0xD31A)


class Reorder(FaultModel):
    """netem-style reordering: with probability ``prob`` a frame is held
    for ``hold_ns`` so frames offered after it reach the wire first."""

    METRICS = (("simnet.faults.reordered", "counter", "reordered"),)

    def __init__(self, prob: float, hold_ns: int, seed: int = 0):
        super().__init__()
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        if hold_ns <= 0:
            raise ValueError(f"hold_ns must be positive, got {hold_ns}")
        self.prob = prob
        self.hold_ns = int(hold_ns)
        self.seed = seed
        self._rng = random.Random(seed ^ 0x0DD5)
        self.reordered = 0

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        if self.prob > 0.0 and self._rng.random() < self.prob:
            self.reordered += 1
            return [(self.hold_ns, frame)]
        return [(0, frame)]

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed ^ 0x0DD5)


class Duplicate(FaultModel):
    """With probability ``prob``, emit an extra copy of the frame (the
    payload bytes are immutable, so both copies share them safely)."""

    METRICS = (("simnet.faults.duplicated", "counter", "duplicated"),)

    def __init__(self, prob: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self.prob = prob
        self.seed = seed
        self._rng = random.Random(seed ^ 0xD0B)
        self.duplicated = 0

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        if self.prob > 0.0 and self._rng.random() < self.prob:
            self.duplicated += 1
            return [(0, frame), (0, frame)]
        return [(0, frame)]

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed ^ 0xD0B)


class LinkFlap(FaultModel):
    """Scheduled link down/up windows: every frame offered while the
    link is down is dropped (carrier loss — nothing is queued).

    ``windows`` is a sequence of absolute ``(down_ns, up_ns)`` simulated
    times, ``down_ns`` inclusive and ``up_ns`` exclusive.
    """

    def __init__(self, windows: Sequence[Tuple[int, int]]):
        super().__init__()
        self.windows: List[Tuple[int, int]] = []
        for down, up in windows:
            if down < 0 or up <= down:
                raise ValueError(f"bad flap window ({down}, {up})")
            self.windows.append((int(down), int(up)))
        self.windows.sort()

    @classmethod
    def single(cls, down_ns: int, duration_ns: int) -> "LinkFlap":
        """One flap: down at ``down_ns`` for ``duration_ns``."""
        return cls([(down_ns, down_ns + duration_ns)])

    @classmethod
    def periodic(
        cls, first_down_ns: int, duration_ns: int, period_ns: int, repeats: int
    ) -> "LinkFlap":
        """``repeats`` flaps of ``duration_ns`` every ``period_ns``."""
        if period_ns <= 0 or repeats < 1:
            raise ValueError("need a positive period and at least one flap")
        return cls(
            [
                (first_down_ns + i * period_ns, first_down_ns + i * period_ns + duration_ns)
                for i in range(repeats)
            ]
        )

    def is_down(self, now: int) -> bool:
        return any(down <= now < up for down, up in self.windows)

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        if self.is_down(now):
            return []
        return [(0, frame)]


class FaultPipeline(FaultModel):
    """Sequential composition: each stage's emissions feed the next
    stage, with hold times accumulating.  A drop by any stage drops that
    emission (and possibly the whole frame)."""

    #: Each stage's own series, summed over stages that share a name.
    METRICS = ((None, "table", "stages"),)

    def __init__(self, *stages: FaultModel):
        super().__init__()
        flat: List[FaultModel] = []
        for stage in stages:
            # Accept a single iterable of stages too.
            if isinstance(stage, FaultModel):
                flat.append(stage)
            else:
                flat.extend(stage)
        if not flat:
            raise ValueError("a pipeline needs at least one stage")
        self.stages: List[FaultModel] = flat

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        emissions: List[Emission] = [(0, frame)]
        for stage in self.stages:
            nxt: List[Emission] = []
            for delay, f in emissions:
                for extra, out in stage.admit(f, now + delay):
                    nxt.append((delay + extra, out))
            emissions = nxt
            if not emissions:
                break
        return emissions

    def reset(self) -> None:
        super().reset()
        for stage in self.stages:
            stage.reset()


def seeded_chaos(
    seed: int,
    loss: Optional[FaultModel] = None,
    reorder_prob: float = 0.0,
    reorder_hold_ns: int = 0,
    dup_prob: float = 0.0,
    jitter_ns: int = 0,
    flap_windows: Iterable[Tuple[int, int]] = (),
) -> FaultPipeline:
    """Convenience builder for the chaos harness: compose whichever
    faults are enabled into one pipeline, all derived from ``seed``.
    ``loss`` (a :class:`~repro.simnet.loss.LossModel`) is the first
    stage."""
    stages: List[FaultModel] = []
    if loss is not None:
        stages.append(loss)
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
