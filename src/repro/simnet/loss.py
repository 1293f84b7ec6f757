"""Packet-loss models.

The paper injects loss with Linux ``tc``: a FIFO queue that "normally
dequeues messages as fast as they can be delivered to the underlying
hardware was configured to drop packets at a defined rate" (§VI.A.2).
We attach loss models at the same point — the NIC egress queue — so a
dropped packet never consumes wire time, exactly like ``tc`` netem.

All models draw from their own seeded :class:`random.Random` so loss
patterns are reproducible and independent of any other randomness.

A :class:`LossModel` is a fault stage (:class:`~repro.simnet.faults.FaultModel`)
that passes or drops each frame, so it attaches to a port on its own or
stands in a :class:`~repro.simnet.faults.FaultPipeline`.  It keeps the
``seen`` (all frames offered) and ``dropped`` counters every stage
keeps; subclasses only implement the per-frame decision in
:meth:`LossModel._decide`.
"""

from __future__ import annotations

import random
from typing import List

from .faults import Emission, FaultModel
from .packet import Frame


class LossModel(FaultModel):
    """Base class: decides, per frame, whether the egress queue drops it.

    When :meth:`_decide` runs, ``seen`` has already been incremented, so
    it doubles as the 1-based index of the frame under consideration.
    """

    def should_drop(self, frame: Frame) -> bool:
        """Offer ``frame`` outside any port; True if the model drops it."""
        return not self.admit(frame, 0)

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        return [] if self._decide(frame) else [(0, frame)]

    def _decide(self, frame: Frame) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """Lossless: counts every frame, drops none."""

    def _decide(self, frame: Frame) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent drop with probability ``rate`` — the model the paper's
    ``tc`` configuration implements (0.1 %, 0.5 %, 1 %, 5 % in Figs. 7–8)."""

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = random.Random(seed)

    def _decide(self, frame: Frame) -> bool:
        return self.rate > 0.0 and self._rng.random() < self.rate

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (good/bad channel).

    WAN loss is bursty rather than independent; the Gilbert-Elliott model
    is the standard way to express that.  ``p_gb``/``p_bg`` are the
    per-frame transition probabilities good→bad and bad→good;
    ``loss_good``/``loss_bad`` the drop probabilities within each state.
    """

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int = 0,
    ):
        super().__init__()
        for name, v in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.seed = seed
        self._rng = random.Random(seed)
        self.bad = False

    def average_loss_rate(self) -> float:
        """Stationary loss rate implied by the chain parameters."""
        denom = self.p_gb + self.p_bg
        if denom == 0:
            return self.loss_bad if self.bad else self.loss_good
        pi_bad = self.p_gb / denom
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    def _decide(self, frame: Frame) -> bool:
        if self.bad:
            if self._rng.random() < self.p_bg:
                self.bad = False
        else:
            if self._rng.random() < self.p_gb:
                self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        return rate > 0.0 and self._rng.random() < rate

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self.bad = False


class PatternLoss(LossModel):
    """Deterministically drop every ``n``-th frame after ``offset``
    (frame indices count from 1: the first drop hits frame
    ``offset + every_nth``).

    Used by tests that need exact, reproducible loss placement — e.g.
    "drop precisely the last segment of a Write-Record message".
    """

    def __init__(self, every_nth: int, offset: int = 0):
        super().__init__()
        if every_nth < 1:
            raise ValueError(f"every_nth must be >= 1, got {every_nth}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.every_nth = every_nth
        self.offset = offset

    def _decide(self, frame: Frame) -> bool:
        # ``seen`` was just incremented by the base class, so it is this
        # frame's 1-based index.
        return (
            self.seen > self.offset
            and (self.seen - self.offset) % self.every_nth == 0
        )


class ExplicitLoss(LossModel):
    """Drop exactly the frames whose 1-based egress index is listed.

    The sharpest tool for unit tests: "drop frames 3 and 7" is stated
    directly instead of being reverse-engineered from probabilities.
    """

    def __init__(self, indices):
        super().__init__()
        self.indices = set(int(i) for i in indices)
        if any(i < 1 for i in self.indices):
            raise ValueError("frame indices are 1-based")

    def _decide(self, frame: Frame) -> bool:
        return self.seen in self.indices


class BitErrorModel:
    """Per-datagram payload corruption.

    Models wire corruption that slips past link-layer checks — precisely
    the failure datagram-iWARP's mandatory CRC32 exists to catch
    (§IV.B item 6), especially with the UDP checksum disabled as the
    paper recommends.  ``apply`` returns the (possibly corrupted) bytes;
    the original buffer is never mutated because in-flight data is
    shared with the sender in the simulation.
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = random.Random(seed ^ 0x5EED)
        self.corrupted = 0
        self.seen = 0

    def apply(self, data: bytes) -> bytes:
        self.seen += 1
        if not data or self.rate <= 0.0 or self._rng.random() >= self.rate:
            return data
        self.corrupted += 1
        index = self._rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[index] ^= 1 << self._rng.randrange(8)
        return bytes(flipped)

    def reset(self) -> None:
        self._rng = random.Random(self.seed ^ 0x5EED)
        self.corrupted = 0
        self.seen = 0
