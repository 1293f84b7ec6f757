"""Retransmission timeouts (RFC 6298) and the per-message sliding window.

:class:`RtoEstimator` does SRTT/RTTVAR smoothing with Karn's rule
applied by the caller (samples are only taken from segments that were
never retransmitted) and exponential backoff on timeout.  TCP, SCTP and
the reliable-datagram (RD) LLP each keep their own instances, with
bounds tuned to their deployment (TCP keeps the RFC's 200 ms floor; the
RD LLP runs on a 10-GigE LAN and floors far lower).

:class:`SendWindow` and :class:`ReceiveWindow` are the one window core
under RD (``rudp.py``) and SCTP (``sctp.py``).  Headers, handshakes and
recovery policy (SACK blocks and selective retransmit for RD, one gap
report and go-back for SCTP) stay in the transports.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet.engine import MS, SEC, Event, Simulator


class RtoEstimator:
    """Classic Jacobson/Karels estimator in integer nanoseconds."""

    ALPHA = 1 / 8
    BETA = 1 / 4
    K = 4
    MAX_BACKOFF_SHIFT = 10

    def __init__(
        self,
        initial_rto_ns: int = 1 * SEC,
        min_rto_ns: int = 200 * MS,
        max_rto_ns: int = 60 * SEC,
    ):
        if not (0 < min_rto_ns <= max_rto_ns):
            raise ValueError("require 0 < min_rto <= max_rto")
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self._rto: int = initial_rto_ns
        self._backoff: int = 0
        self.samples: int = 0
        self.backoffs: int = 0

    def sample(self, rtt_ns: int) -> None:
        """Feed one RTT measurement (never from a retransmitted segment)."""
        if rtt_ns < 0:
            raise ValueError(f"negative RTT sample: {rtt_ns}")
        if self.samples == 0:
            self.srtt = float(rtt_ns)
            self.rttvar = rtt_ns / 2.0
        else:
            err = abs(self.srtt - rtt_ns)
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * err
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt_ns
        self.samples += 1
        self._backoff = 0
        spread = self.K * self.rttvar
        rto = int(self.srtt + (1.0 if spread < 1.0 else spread))
        # Clamped to [min_rto_ns, max_rto_ns] as max(min, min(rto, max)).
        if self.max_rto_ns < rto:
            rto = self.max_rto_ns
        self._rto = rto if rto > self.min_rto_ns else self.min_rto_ns

    def on_timeout(self) -> None:
        """Exponential backoff after an expiry (capped)."""
        self._backoff = min(self._backoff + 1, self.MAX_BACKOFF_SHIFT)
        self.backoffs += 1

    def reset_backoff(self) -> None:
        """Forward progress observed (new cumulative ACK): drop the
        exponential backoff (RFC 6298 §5.7 behaviour)."""
        self._backoff = 0

    @property
    def rto_ns(self) -> int:
        rto = self._rto << self._backoff
        return self.max_rto_ns if self.max_rto_ns < rto else rto


# ReceiveWindow.arrive verdicts.
DUPLICATE = 0   # below the cumulative point, or already parked
IN_ORDER = 1    # the next expected message: the cumulative point moved
PARKED = 2      # inside the window beyond a hole: held for later
BEYOND = 3      # at or past the window's edge: dropped


class SendWindow:
    """Sender half: messages numbered from 1, at most ``limit`` unacked.

    ``unacked`` always holds exactly the sequence numbers
    ``[lowest, next_seq)`` in order: they enter in sequence order and
    leave as a cumulative prefix, so an ACK costs O(acked) and
    iteration is already sorted.  ``flight_bytes`` is their payload
    total."""

    __slots__ = ("next_seq", "unacked", "flight_bytes", "limit", "timer")

    def __init__(self, limit: int) -> None:
        self.next_seq = 1
        self.unacked: Dict[int, bytes] = {}
        self.flight_bytes = 0
        self.limit = limit
        self.timer: Optional[Event] = None

    @property
    def lowest(self) -> int:
        """The oldest unacked sequence number (``next_seq`` if none)."""
        return next(iter(self.unacked), self.next_seq)

    def push(self, data: bytes) -> int:
        """Number one message and hold it until acknowledged."""
        seq = self.next_seq
        self.next_seq = seq + 1
        self.unacked[seq] = data
        self.flight_bytes += len(data)
        return seq

    def ack(self, cum: int) -> range:
        """Release every message below ``cum``; returns their numbers."""
        unacked = self.unacked
        end = self.next_seq if self.next_seq < cum else cum
        acked = range(next(iter(unacked), self.next_seq), end)
        for seq in acked:
            self.flight_bytes -= len(unacked.pop(seq))
        return acked

    def arm(self, sim: Simulator, due: int, callback: Callable[..., None], *args: Any) -> None:
        """(Re)start the retransmission timer: the handle is made once
        and every later arm moves it."""
        if self.timer is None:
            self.timer = sim.at(due, callback, *args)
        else:
            sim.rearm(self.timer, due, *args)

    def stop(self) -> None:
        if self.timer is not None:
            self.timer.cancel()


class ReceiveWindow:
    """Receiver half: ``rcv_nxt`` is the next sequence number expected
    (everything below it was delivered), and ``parked`` holds arrivals
    beyond a hole, only inside ``(rcv_nxt, rcv_nxt + limit)``: a sender
    with the same window never sends past it, so a peer spraying
    far-ahead numbers cannot grow the buffer.  ``order`` lists the
    parked numbers ascending, so an acknowledgement reads only the
    parked runs it reports."""

    __slots__ = ("rcv_nxt", "parked", "order", "limit")

    def __init__(self, limit: int) -> None:
        self.rcv_nxt = 1
        self.parked: Dict[int, bytes] = {}
        self.order: List[int] = []
        self.limit = limit

    def arrive(self, seq: int, data: bytes) -> int:
        """Classify one arrival.  On ``IN_ORDER`` the cumulative point
        has passed ``seq``; the caller delivers ``data`` and then
        :meth:`drain`."""
        if seq == self.rcv_nxt:
            self.rcv_nxt = seq + 1
            return IN_ORDER
        if seq < self.rcv_nxt or seq in self.parked:
            return DUPLICATE
        if seq >= self.rcv_nxt + self.limit:
            return BEYOND
        self.parked[seq] = data
        insort(self.order, seq)
        return PARKED

    def drain(self) -> List[bytes]:
        """Every parked message the cumulative point now reaches, in
        order; the point moves past them all."""
        parked = self.parked
        seq = self.rcv_nxt
        out = []
        while seq in parked:
            out.append(parked.pop(seq))
            seq += 1
        del self.order[:len(out)]  # the drained numbers are the lowest parked
        self.rcv_nxt = seq
        return out

    def runs(self, count: int) -> List[Tuple[int, int]]:
        """The first ``count`` contiguous runs of parked messages, as
        inclusive ``(start, end)`` pairs."""
        runs: List[Tuple[int, int]] = []
        for seq in self.order:
            if runs and seq == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], seq)
            elif len(runs) < count:
                runs.append((seq, seq))
            else:
                break
        return runs

    def lowest_parked(self) -> int:
        """The lowest parked sequence number, 0 if none."""
        return self.order[0] if self.order else 0
