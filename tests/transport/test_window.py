"""The receive half of the window core RD and SCTP share."""

import random

from repro.transport.rto import BEYOND, DUPLICATE, IN_ORDER, PARKED, ReceiveWindow


def sorted_runs(parked, count):
    """``ReceiveWindow.runs`` computed from ``sorted()`` of the parked set."""
    runs = []
    for seq in sorted(parked):
        if runs and seq == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], seq)
        elif len(runs) < count:
            runs.append((seq, seq))
        else:
            break
    return runs


def test_runs_and_lowest_parked_match_a_sorted_reference():
    rng = random.Random(23)
    rx = ReceiveWindow(64)
    verdicts = set()
    for _ in range(5000):
        # Mostly out-of-order arrivals, some duplicates and some beyond
        # the window; the hole fills often enough to drain long runs.
        if rng.random() < 0.1:
            seq = rx.rcv_nxt
        else:
            seq = rx.rcv_nxt + rng.randrange(-3, 72)
        expected_drain = []
        nxt = seq + 1
        while nxt in rx.parked:
            expected_drain.append(nxt)
            nxt += 1
        verdict = rx.arrive(seq, seq)
        verdicts.add(verdict)
        if verdict == IN_ORDER:
            assert rx.drain() == expected_drain
            assert rx.rcv_nxt == nxt
        assert rx.order == sorted(rx.parked)
        assert rx.lowest_parked() == min(rx.parked, default=0)
        for count in (1, 3, 64):
            assert rx.runs(count) == sorted_runs(rx.parked, count)
    assert verdicts == {IN_ORDER, DUPLICATE, PARKED, BEYOND}
