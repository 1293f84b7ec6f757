"""The fault-schedule explorer (``iwarpcheck.schedules``): clean on the
tree at one fault per schedule, and each oracle catches the mutant
written against it, as does reverting any of the error fixes it led
to; the reliable paths deliver one sequence."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from iwarpcheck import cli, schedules  # noqa: E402

from repro.bench import scenarios  # noqa: E402
from repro.bench.harness import send_pattern  # noqa: E402
from repro.core.mpa.connection import MpaConnection  # noqa: E402
from repro.core.rdmap.engine import RdmapRx, RdmapTx  # noqa: E402
from repro.core.verbs import WcStatus, WorkCompletion  # noqa: E402
from repro.core.verbs.qp import QueuePair, RcQp, UdQp  # noqa: E402
from repro.simnet.engine import SEC, Simulator  # noqa: E402
from repro.transport import sctp  # noqa: E402
from repro.transport.rudp import RudpSocket  # noqa: E402

#: Smaller than the module's bounds, so the whole file stays a few seconds.
FRAMES = 8
#: Frames each row's build offers: the TCP handshake and MPA
#: negotiation, the SCTP four-way handshake, none on a datagram QP.
SETUP = {"explore-rc_sendrecv": 5, "explore-rcsctp_sendrecv": 4}
#: The rows whose workload posts receives.
RECEIVING = [row for row in schedules.ROWS if row != "explore-ud_write_record"]


def expected_runs(row, setup, frames):
    """1 + the one-fault schedules over ``frames`` frames, the first
    ``setup`` of which (the RC handshake) take no close or drain."""
    kinds = schedules.fault_kinds(row)
    early = [kind for kind in kinds if not kind.startswith(("close@", "drain@"))]
    return 1 + setup * len(early) + (frames - setup) * len(kinds)


def test_one_fault_over_every_row_is_clean():
    composites = set()
    for row in schedules.ROWS:
        runs = list(schedules.explore(row, max_faults=1, max_frames=FRAMES))
        setup = runs[0].setup
        assert setup == SETUP.get(row, 0)
        assert len(runs) == expected_runs(row, setup, FRAMES)
        assert [f for run in runs for f in run.findings] == []
        composites |= set().union(*(run.composites for run in runs))
    # The handshake, a reset, a close from either side, a drain.
    for composite in (
        ("RESET", "NEGOTIATING", "SYN_SENT"),
        ("RTS", "OPERATIONAL", "ESTABLISHED"),
        ("ERROR", "FAILED", "CLOSED"),
        ("ERROR", "OPERATIONAL", "FIN_WAIT_1"),
        ("RTS", "OPERATIONAL", "CLOSE_WAIT"),
        ("SQD", "OPERATIONAL", "ESTABLISHED"),
    ):
        assert composite in composites


def test_faults_sit_only_at_frames_the_run_reached():
    # A fault at a frame index the run never reaches would repeat it.
    runs = list(schedules.explore("explore-ud_sendrecv", max_faults=1, max_frames=10_000))
    frames = runs[0].frames
    assert runs[0].schedule == () and 0 < frames < 10_000
    assert len(runs) == expected_runs("explore-ud_sendrecv", 0, frames)


def test_a_reset_during_the_handshake_fails_the_qp():
    # Host 0's connection is reset as the SYN leaves: MPA fails while
    # still negotiating, the QP errors, and the build gives up cleanly.
    run = schedules.run_schedule("explore-rc_sendrecv", ((0, "reset@0"),))
    assert run.findings == [] and run.setup == run.frames
    assert ("ERROR", "FAILED", "CLOSED") in run.composites


def test_schedule_text_round_trips():
    schedule = ((3, "drop"), (7, "reset@1"))
    text = schedules.render(schedule)
    assert text == "3:drop,7:reset@1"
    assert schedules.parse(text, "explore-rc_sendrecv") == schedule
    assert schedules.parse("-", "explore-rc_sendrecv") == ()
    with pytest.raises(ValueError):
        schedules.parse("2:reset@0", "explore-ud_sendrecv")


def first_finding(row, rule, frames=FRAMES):
    """The first counterexample for ``rule`` on ``row`` at one fault."""
    for run in schedules.explore(row, max_faults=1, max_frames=frames):
        hits = [f for f in run.findings if f.rule == rule]
        if hits:
            return run, hits[0]
    raise AssertionError(f"{rule} never fired on {row}")


# -- one mutant per oracle ------------------------------------------------------


def test_qp_ignoring_mpa_errors_is_caught(monkeypatch):
    attach = RcQp._attach

    def deaf(self, mpa):
        ready = attach(self, mpa)
        mpa.on_error = lambda exc: None
        return ready

    monkeypatch.setattr(RcQp, "_attach", deaf)
    run, finding = first_finding("explore-rc_sendrecv", "IC402")
    assert "FAILED" in finding.message
    assert finding.machine == "explore-rc_sendrecv"
    assert schedules.render(run.schedule) in finding.message


def test_qp_ready_before_mpa_is_caught(monkeypatch):
    attach = RcQp._attach

    def eager(self, mpa):
        attach(self, mpa)
        ready = self.sim.future()
        ready.set_result(mpa)
        return ready

    monkeypatch.setattr(RcQp, "_attach", eager)
    run, finding = first_finding("explore-rc_sendrecv", "IC401")
    assert run.schedule == ()
    assert "RTS/NEGOTIATING" in finding.message


def test_a_flush_that_does_nothing_is_caught(monkeypatch):
    monkeypatch.setattr(QueuePair, "_flush_recv_queue", lambda self: None)
    for row in RECEIVING:
        _, finding = first_finding(row, "IC403")
        assert "completed 0 times" in finding.message, row


def test_rd_delivering_a_retransmitted_duplicate_is_caught(monkeypatch):
    on_data = RudpSocket._on_data

    def redeliver(self, seq, payload, src):
        rx = self._rx.get(src)
        if rx is not None and seq < rx.rcv_nxt:
            self._deliver(payload, src)
        on_data(self, seq, payload, src)

    monkeypatch.setattr(RudpSocket, "_on_data", redeliver)
    run, finding = first_finding("explore-rd_sendrecv", "IC403", frames=16)
    assert run.schedule
    assert "is not the fault-free run's, yet" in finding.message


def test_sctp_without_its_checksum_is_caught(monkeypatch):
    # A corrupted DATA chunk is then placed, and completes SUCCESS with
    # other bytes than the fault-free run placed.
    monkeypatch.setattr(sctp, "crc32", lambda data: 0)
    run, finding = first_finding("explore-rcsctp_sendrecv", "IC403", frames=16)
    assert run.schedule[0][1] == "corrupt"
    assert "completion #0 (wr_id=1 SUCCESS 16384 B) is not the fault-free run's" in finding.message


def test_the_reliable_paths_deliver_one_sequence():
    """RC over TCP, RC over SCTP and RD, each under 1 % loss on host
    0's egress, give the receiver the same completions, as the
    explorer's contract records them, and the contract holds."""
    delivered = []
    for row in ("rc_sendrecv-0.01", "rcsctp_sendrecv-0.01", "rd_sendrecv-0.01"):
        spec = scenarios.SCENARIOS[row]
        sim = Simulator()
        pair = scenarios.build(spec, sim)
        violations = []
        ledger = schedules._Ledger(pair, violations)
        scenarios.workload(spec, pair)()
        for qp in pair.qps:
            qp.close()
        sim.run(until=sim.now + SEC)
        ledger.check(delivered[0] if delivered else None)
        assert violations == [], row
        delivered.append(tuple(map(tuple, ledger.delivered)))
    assert delivered[0] == delivered[1] == delivered[2]
    received = delivered[0][1]
    assert [status for _, status, _, _ in received] == [WcStatus.SUCCESS] * 40 + \
        [WcStatus.FLUSHED] * 8
    sent = send_pattern(0, spec.size)
    assert all(placed == sent for _, _, _, placed in received[:40])


def test_write_record_completing_without_last_is_caught(monkeypatch):
    on_write_record = RdmapRx._on_write_record

    def hasty(self, seg, src):
        on_write_record(self, seg, src)
        state = self._write_records.get((src, seg.msg_id))
        if state is not None:
            self._finish_write_record((src, seg.msg_id), state)

    monkeypatch.setattr(RdmapRx, "_on_write_record", hasty)
    _, finding = first_finding("explore-ud_write_record", "IC405")
    assert "before its LAST segment" in finding.message


def test_ud_reporting_the_wrong_source_is_caught(monkeypatch):
    on_datagram = UdQp._on_datagram
    monkeypatch.setattr(
        UdQp, "_on_datagram", lambda self, data, src: on_datagram(self, data, self.address)
    )
    for row in ("explore-ud_sendrecv", "explore-ud_write_record", "explore-rd_sendrecv"):
        _, finding = first_finding(row, "IC406")
        assert "reports source" in finding.message


def test_a_send_completing_at_hand_off_on_rd_is_caught(monkeypatch):
    start = RdmapTx._start

    def hasty(self, entry, payload):
        start(self, entry, payload)
        qp = self.qp
        if qp.rd is not None:
            qp.host.cpu.submit(
                qp.host.costs.cqe_ns, qp.finish_send, entry, WcStatus.SUCCESS, True
            )

    monkeypatch.setattr(RdmapTx, "_start", hasty)
    run, finding = first_finding("explore-rd_sendrecv", "IC407")
    assert run.schedule == ()
    assert "completed SUCCESS before its message reached the peer" in finding.message


def test_a_close_lands_while_two_signaled_sends_are_outstanding(monkeypatch):
    flush = QueuePair._flush_send_queue
    owed = []

    def counting(self):
        owed.append(sum(entry.wr.signaled for entry in self.sq))
        flush(self)

    monkeypatch.setattr(QueuePair, "_flush_send_queue", counting)
    for row in schedules.ROWS:
        most = 0
        for run in schedules.explore(row, max_faults=1, max_frames=FRAMES):
            if run.schedule and run.schedule[0][1].startswith("close@"):
                most = max([most] + owed)
            owed.clear()  # the closes the run made
        assert most >= 2, row


def test_a_flush_that_skips_the_send_queue_is_caught(monkeypatch):
    # On RD every message a close catches has reached RD, which fails it
    # itself; elsewhere only the send-queue flush completes it.
    monkeypatch.setattr(QueuePair, "_flush_send_queue", lambda self: None)
    for row in ("explore-rc_sendrecv", "explore-rcsctp_sendrecv", "explore-ud_write_record",
                "explore-ud_sendrecv"):
        caught = [
            run for run in schedules.explore(row, max_faults=1, max_frames=FRAMES)
            if run.schedule and run.schedule[0][1].startswith("close@")
            and any(f.rule == "IC407" for f in run.findings)
        ]
        assert caught, row


# -- the RC error fixes, reverted ------------------------------------------------


def test_reverting_the_send_after_error_fix_is_caught(monkeypatch):
    # The CQE RdmapTx._start queues lands SUCCESS whether or not an
    # error flushed the send in the meantime, as before the send queue.
    finish_send = QueuePair.finish_send

    def decided_at_start(self, entry, status, at_once=False, **fields):
        if not (at_once and status is WcStatus.SUCCESS):
            return finish_send(self, entry, status, at_once, **fields)
        wr = entry.wr
        if entry in self.sq:
            self.sq.remove(entry)
        self.complete("sq", WorkCompletion(
            wr.wr_id, wr.opcode, status, entry.byte_len, msg_id=entry.msg_id), True)
        return True

    monkeypatch.setattr(QueuePair, "finish_send", decided_at_start)
    run, finding = first_finding("explore-rc_sendrecv", "IC407")
    assert run.schedule  # an error while sends are queued: a reset or a close
    assert "before its message reached the LLP" in finding.message



def test_reverting_the_reset_coupling_is_caught(monkeypatch):
    monkeypatch.setattr(MpaConnection, "_on_tcp_close", lambda self: None)
    run, finding = first_finding("explore-rc_sendrecv", "IC401")
    assert run.schedule[0][1].startswith("reset@")
    assert "RTS/OPERATIONAL/CLOSED" in finding.message


def test_reverting_the_open_receive_flush_is_caught(monkeypatch):
    monkeypatch.setattr(RdmapRx, "take_open_receive", lambda self: None)
    for row in ("explore-rc_sendrecv", "explore-rcsctp_sendrecv"):
        run, finding = first_finding(row, "IC403", frames=schedules.MAX_FRAMES)
        assert run.schedule
        assert "completed 0 times" in finding.message, row


@pytest.mark.parametrize("schedule", [
    "3:reset@1",   # SCTP ready while the reset's error was queued: ERROR -> RTS
    "8:corrupt",   # a corrupted DATA chunk placed and completed SUCCESS
])
def test_rcsctp_counterexamples_replay_clean(schedule):
    row = "explore-rcsctp_sendrecv"
    assert schedules.run_schedule(row, schedules.parse(schedule, row)).findings == []


# -- the command line ------------------------------------------------------------


def test_cli_reports_a_replayable_counterexample(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(MpaConnection, "_on_tcp_close", lambda self: None)
    monkeypatch.setattr(schedules, "MAX_FAULTS", 1)
    monkeypatch.setattr(schedules, "MAX_FRAMES", 6)
    report = tmp_path / "explore.json"
    args = ["explore", "--row", "explore-rc_sendrecv", "--output", str(report)]
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    assert "explore-rc_sendrecv: IC401 schedule 5:reset@0:" in out
    payload = json.loads(report.read_text())
    assert payload["runs"] == {
        "explore-rc_sendrecv": expected_runs("explore-rc_sendrecv", 5, 6)
    }
    replay = ["explore", "--row", "explore-rc_sendrecv", "--schedule", "5:reset@0"]
    assert cli.main(replay) == 1
    monkeypatch.undo()
    assert cli.main(replay) == 0


def test_cli_rejects_bad_rows_and_schedules():
    assert cli.main(["explore", "--row", "nope"]) == 2
    assert cli.main(["explore", "--schedule", "0:drop"]) == 2
    assert cli.main(["explore", "--row", "explore-ud_sendrecv", "--schedule", "x"]) == 2
