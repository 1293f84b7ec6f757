"""TCP Reno congestion control.

Slow start, congestion avoidance, fast retransmit/fast recovery, and
timeout collapse — the reliability/flow-control machinery whose overhead
the paper's motivation targets ("high overhead reliability and
flow-control measures in TCP", §I).  Keeping it faithful lets the
benchmarks show TCP behaving like TCP (in-order blocking under loss,
window growth on LANs) rather than like an idealized pipe.
"""

from __future__ import annotations

#: RFC 6928 initial window (Linux default since 2.6.39), in segments.
INITIAL_WINDOW_SEGMENTS = 10


class RenoCongestion:
    """Byte-counting Reno (RFC 5681 style)."""

    def __init__(self, mss: int):
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        self.mss = mss
        self.cwnd = INITIAL_WINDOW_SEGMENTS * mss
        self.ssthresh = 1 << 62
        self.in_recovery = False
        self.recovery_point = 0  # snd_nxt at loss detection
        # Counters for tests/reports.
        self.fast_retransmits = 0
        self.timeouts = 0

    # -- events ------------------------------------------------------------

    def on_ack(self, newly_acked: int, snd_una: int) -> None:
        """New data acknowledged."""
        if newly_acked <= 0:
            return
        if self.in_recovery:
            if snd_una >= self.recovery_point:
                # Full recovery: deflate to ssthresh.
                self.in_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ack: stay in recovery (NewReno-lite).
                return
        elif self.cwnd < self.ssthresh:
            # Slow start: grow by bytes acked (capped per-ACK at MSS).
            self.cwnd += min(newly_acked, self.mss)
        else:
            # Congestion avoidance: ~one MSS per RTT.
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def on_dup_acks(self, flight_size: int, snd_nxt: int) -> bool:
        """Third duplicate ACK: enter fast recovery.  Returns True if the
        caller should fast-retransmit the lost segment."""
        if self.in_recovery:
            return False
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_recovery = True
        self.recovery_point = snd_nxt
        self.fast_retransmits += 1
        return True

    def on_dup_ack_in_recovery(self) -> None:
        """Each further dup-ACK inflates the window by one MSS."""
        if self.in_recovery:
            self.cwnd += self.mss

    def on_timeout(self, flight_size: int) -> None:
        """RTO expiry: collapse to one segment."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.timeouts += 1

    # -- queries ------------------------------------------------------------

    def send_allowance(self, flight_size: int, peer_window: int) -> int:
        """How many more bytes may be in flight right now."""
        return max(0, min(self.cwnd, peer_window) - flight_size)
