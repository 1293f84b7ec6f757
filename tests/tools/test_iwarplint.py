"""iwarplint self-tests: every rule family fires exactly where a
violation fixture plants one, and stays silent on clean code — including
the real stack under ``src/``."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from iwarplint import invariants as inv  # noqa: E402
from iwarplint import lint_paths  # noqa: E402
from iwarplint.driver import all_rules, module_name_for  # noqa: E402


# ---------------------------------------------------------------------------
# Fixture-tree plumbing
# ---------------------------------------------------------------------------


def write_tree(root: Path, files: dict) -> Path:
    """Write ``{relative/path.py: source}`` under root, creating the
    ``__init__.py`` chain so files get real dotted module names."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        d = path.parent
        while d != root:
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
            d = d.parent
    return root


def codes(violations):
    return [v.rule for v in violations]


def line_of(root: Path, rel: str, marker: str) -> int:
    for idx, text in enumerate((root / rel).read_text().splitlines(), start=1):
        if marker in text:
            return idx
    raise AssertionError(f"marker {marker!r} not found in {rel}")


#: A conformant repro.core.verbs.qp — the machine is declared once, as
#: a literal event table iwarplint reads from the AST, and all writes go
#: through the validated helper.
CLEAN_QP = """
    from repro.core.fsm import pair_table

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"
    RTS = "RTS"
    SQD = "SQD"
    ERROR = "ERROR"

    QP_EVENT_TRANSITIONS = {
        (RESET, "modify_qp"): INIT,
        (RESET, "connect_ready"): RTS,
        (RESET, "close"): ERROR,
        (INIT, "modify_qp"): RTR,
        (INIT, "recycle"): RESET,
        (INIT, "close"): ERROR,
        (RTR, "modify_qp"): RTS,
        (RTR, "recycle"): RESET,
        (RTR, "close"): ERROR,
        (RTS, "sq_drain"): SQD,
        (RTS, "recycle"): RESET,
        (RTS, "close"): ERROR,
        (SQD, "sq_resume"): RTS,
        (SQD, "recycle"): RESET,
        (SQD, "close"): ERROR,
        (ERROR, "recycle"): RESET,
    }

    QP_TRANSITIONS = pair_table(QP_EVENT_TRANSITIONS)

    class QueuePair:
        def __init__(self):
            self.state = RESET

        def _set_state(self, new_state):
            if new_state == self.state:
                return
            if new_state not in QP_TRANSITIONS.get(self.state, frozenset()):
                raise ValueError(new_state)
            self.state = new_state

        def modify_qp(self, new_state):
            self._set_state(new_state)
"""


# ---------------------------------------------------------------------------
# Driver basics
# ---------------------------------------------------------------------------


class TestDriver:
    def test_module_naming_walks_init_chain(self, tmp_path):
        root = write_tree(tmp_path, {"repro/core/ddp/foo.py": "x = 1\n"})
        assert module_name_for(root / "repro/core/ddp/foo.py") == "repro.core.ddp.foo"
        loose = tmp_path / "loose.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "loose"

    def test_all_rule_families_registered(self):
        table = all_rules()
        for code in ("IW001", "IW101", "IW102", "IW103", "IW201", "IW202",
                     "IW203", "IW204", "IW301", "IW302", "IW303", "IW401",
                     "IW402", "IW403", "IW501"):
            assert code in table

    def test_syntax_error_reported_as_iw001(self, tmp_path):
        root = write_tree(tmp_path, {"repro/simnet/bad.py": "def broken(:\n"})
        assert codes(lint_paths([root])) == ["IW001"]

    def test_select_filters_by_family_prefix(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/helper.py": """
                import time
                from repro.core.verbs import wr

                NOW = time.time()
            """,
        })
        assert codes(lint_paths([root], select=["IW1"])) == ["IW101"]
        assert codes(lint_paths([root], select=["IW401"])) == ["IW401"]

    def test_clean_tree_is_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP,
            "repro/apps/demo.py": """
                from repro.core.verbs import qp
            """,
            "repro/simnet/engine.py": """
                import random

                RNG = random.Random(42)

                def pick(items):
                    return RNG.choice(sorted(items))
            """,
        })
        assert lint_paths([root]) == []


# ---------------------------------------------------------------------------
# IW1xx — layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_upward_import_fires_iw101(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/helper.py": """
                from repro.core.verbs import wr  # upward
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW101"
        assert v.line == line_of(root, "repro/transport/helper.py", "# upward")

    def test_layer_skip_fires_iw102(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/apps/demo.py": """
                from repro.core.ddp import headers
            """,
        })
        assert codes(lint_paths([root])) == ["IW102"]

    def test_sanctioned_skip_is_silent(self, tmp_path):
        # THE paper's sanctioned skip: verbs framing datagrams straight
        # onto the transport, bypassing MPA (section IV.B).
        root = write_tree(tmp_path, {
            "repro/core/verbs/udqp.py": """
                from repro.transport.rudp import RudpSocket
                from repro.transport.udp import UDP_HEADER
            """,
        })
        assert lint_paths([root]) == []

    def test_off_allowlist_module_fires_iw103(self, tmp_path):
        # socketif -> simnet is sanctioned ONLY for the event loop.
        root = write_tree(tmp_path, {
            "repro/core/socketif/shim.py": """
                from repro.simnet.loss import BernoulliLoss
            """,
        })
        assert codes(lint_paths([root])) == ["IW103"]

    def test_stdlib_and_support_imports_are_unrestricted(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/engine.py": """
                import heapq
                import itertools
                from repro.memory.region import Access
            """,
        })
        assert lint_paths([root]) == []

    def test_type_checking_imports_are_exempt(self, tmp_path):
        # An ``if TYPE_CHECKING:`` import never executes, so it creates
        # no runtime layering edge — even an otherwise-upward one.
        root = write_tree(tmp_path, {
            "repro/transport/helper.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.core.verbs import wr
            """,
        })
        assert lint_paths([root]) == []

    def test_type_checking_guard_does_not_shield_runtime_imports(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/helper.py": """
                import typing

                if typing.TYPE_CHECKING:
                    from repro.core.verbs import wr
                from repro.core.verbs import cq  # runtime, upward
            """,
        })
        assert codes(lint_paths([root])) == ["IW101"]


# ---------------------------------------------------------------------------
# IW2xx — FSM conformance
# ---------------------------------------------------------------------------


class TestFsm:
    def test_direct_state_write_fires_iw201(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def force_ready(self):
            self.state = RTS  # bypasses the helper
    """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW201"
        assert v.line == line_of(root, "repro/core/verbs/qp.py", "bypasses the helper")

    def test_init_may_assign_initial_state_only(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP.replace(
                "self.state = RESET", "self.state = RTS"
            ),
        })
        assert codes(lint_paths([root])) == ["IW201"]

    def test_guarded_illegal_transition_fires_iw202(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def demote(self):
            if self.state == RTS:
                self._set_state(RTR)  # RTS -> RTR is not in the table
    """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW202"
        assert "RTS -> RTR" in v.message

    def test_negated_guard_propagates_after_early_raise(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def drain(self):
            if self.state != RTS:
                raise ValueError("not ready")
            self._set_state(SQD)  # legal: state proven RTS here
    """,
        })
        assert lint_paths([root]) == []

    def test_guarded_legal_and_any_target_are_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def ladder(self):
            if self.state == INIT:
                self._set_state(RTR)

        def die(self):
            if self.state in (RTS, SQD):
                self._set_state(ERROR)  # ERROR is reachable from anywhere
    """,
        })
        assert lint_paths([root]) == []

    def test_undeclared_state_fires_iw203(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def wedge(self):
            self._set_state("LIMBO")
    """,
        })
        assert codes(lint_paths([root])) == ["IW203"]

    @pytest.mark.parametrize(
        "source",
        [
            CLEAN_QP.replace("QP_EVENT_TRANSITIONS = {", "QP_EVENTS = {"),
            CLEAN_QP.replace("QP_EVENT_TRANSITIONS = {", "QP_EVENT_TRANSITIONS = {**BASE,"),
            CLEAN_QP.replace('(RTS, "sq_drain"): SQD,', '(RTS, "sq_drain"): next_state(),'),
        ],
        ids=["missing", "spread", "non-literal-arc"],
    )
    def test_unreadable_event_table_fires_iw204(self, tmp_path, source):
        root = write_tree(tmp_path, {"repro/core/verbs/qp.py": source})
        (v,) = lint_paths([root])
        assert v.rule == "IW204"
        assert "QP_EVENT_TRANSITIONS" in v.message

    def test_dropped_event_arc_fires_iw202(self, tmp_path):
        # The pairs IW202 checks are projected from the event literal, so
        # removing the only RTS -> SQD arc outlaws a guarded drain.
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP.replace(
                '(RTS, "sq_drain"): SQD,', ""
            ) + """
        def drain(self):
            if self.state == RTS:
                self._set_state(SQD)
    """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW202"
        assert "RTS -> SQD" in v.message

    def test_unguarded_helper_call_left_to_runtime(self, tmp_path):
        # No enclosing guard: the source set is unknowable statically, so
        # the runtime validation inside _set_state owns the check.
        root = write_tree(tmp_path, {
            "repro/core/verbs/qp.py": CLEAN_QP + """
        def recycle(self):
            self._set_state(RESET)
    """,
        })
        assert lint_paths([root]) == []


# ---------------------------------------------------------------------------
# IW3xx — wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_undeclared_format_fires_iw301(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/ddp/headers.py": """
                import struct

                _ROGUE = struct.Struct("!HHI")  # not in the manifest
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW301"
        assert "!HHI" in v.message

    def test_manifest_size_disagreement_fires_iw302(self, tmp_path, monkeypatch):
        monkeypatch.setitem(inv.WIRE_FORMATS["repro.core.ddp.headers"], "!BB", 3)
        root = write_tree(tmp_path, {
            "repro/core/ddp/headers.py": """
                import struct

                _CTRL = struct.Struct("!BB")
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW302"
        assert "packs 2 bytes" in v.message

    def test_non_literal_format_fires_iw303(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/mpa/fpdu.py": """
                import struct

                def pack_len(fmt, n):
                    return struct.pack(fmt, n)
            """,
        })
        assert codes(lint_paths([root])) == ["IW303"]

    def test_declared_formats_are_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/rudp.py": """
                import struct

                _HEADER = struct.Struct("!BQ")
                _ACK_ECHO = struct.Struct("!Q")
                _SACK_RANGE = struct.Struct("!QQ")
            """,
        })
        assert lint_paths([root]) == []

    def test_unwatched_modules_are_ignored(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/apps/tool.py": """
                import struct

                _ANYTHING = struct.Struct("!HHHH")
            """,
        })
        assert lint_paths([root]) == []


# ---------------------------------------------------------------------------
# IW4xx — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_read_fires_iw401(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                import time

                def stamp():
                    return time.time()  # wall clock
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW401"
        assert v.line == line_of(root, "repro/simnet/clocky.py", "wall clock")

    def test_unseeded_randomness_fires_iw402(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/jitter.py": """
                import random

                def wobble():
                    return random.random()

                def make_rng():
                    return random.Random()
            """,
        })
        assert codes(lint_paths([root])) == ["IW402", "IW402"]

    def test_seeded_rng_is_the_sanctioned_pattern(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/noise.py": """
                import random

                def make_rng(seed):
                    return random.Random(seed)
            """,
        })
        assert lint_paths([root]) == []

    def test_set_iteration_fires_iw403(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/rdmap/sweep.py": """
                def flush(pending: set):
                    for item in pending:  # hash order
                        item.cancel()
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW403"
        assert v.line == line_of(root, "repro/core/rdmap/sweep.py", "hash order")

    def test_sorted_and_reductions_over_sets_are_silent(self, tmp_path):
        # Regression for the false positive iwarplint originally raised
        # on simnet/loss.py: any(...) over a set cannot observe order.
        root = write_tree(tmp_path, {
            "repro/simnet/lossy.py": """
                def check(indices: set):
                    bad = any(i < 1 for i in indices)
                    total = sum(i for i in indices)
                    for i in sorted(indices):
                        print(i)
                    return bad, total, {i * 2 for i in indices}
            """,
        })
        assert lint_paths([root]) == []

    def test_out_of_scope_modules_unrestricted(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/apps/cli.py": """
                import time

                def wall():
                    return time.time()
            """,
        })
        assert lint_paths([root]) == []


# ---------------------------------------------------------------------------
# IW5xx — metric naming
# ---------------------------------------------------------------------------


class TestMetricNaming:
    def test_two_segment_name_fires_iw501(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/cq.py": """
                class CompletionQueue:
                    METRICS = (
                        ("verbs.cq.polls", "counter", "polls"),
                        ("verbs.posts", "counter", "posts"),  # two segments
                    )
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW501"
        assert v.line == line_of(root, "repro/core/verbs/cq.py", "two segments")

    def test_unknown_layer_fires_iw501(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/transport/rudp_extra.py": """
                class Extra:
                    METRICS = (("llp.rudp.cwnd", "gauge", "cwnd"),)
            """,
        })
        (v,) = lint_paths([root])
        assert v.rule == "IW501"
        assert "unknown layer 'llp'" in v.message

    def test_uppercase_and_bad_chars_fire_iw501(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/porty.py": """
                class Porty:
                    METRICS = (
                        ("simnet.Port.queue-depth", "histogram", "depth"),
                    )
            """,
        })
        assert codes(lint_paths([root])) == ["IW501"]

    def test_conformant_names_are_silent(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/verbs/cq.py": """
                class Base:
                    METRICS = (
                        ("verbs.qp.posts", "counter", "posts", "op"),
                        ("transport.tcp.cwnd_bytes", "gauge", "cong.cwnd"),
                        (None, "table", "rx"),
                    )

                class Derived(Base):
                    METRICS = Base.METRICS + (
                        ("verbs.cq.poll_batch", "histogram", "poll_batch"),
                    )
            """,
        })
        assert lint_paths([root]) == []

    def test_computed_names_left_to_runtime(self, tmp_path):
        # A computed row name; the registry's own validate_name covers
        # it when the table is watched.
        root = write_tree(tmp_path, {
            "repro/transport/rudp_extra.py": """
                KEY = "acks"

                class Extra:
                    METRICS = (("transport.rudp." + KEY, "counter", KEY),)
            """,
        })
        assert lint_paths([root]) == []

    def test_non_repro_modules_out_of_scope(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text('class C:\n    METRICS = (("nope", "counter", "n"),)\n')
        assert lint_paths([loose]) == []


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                import time

                def stamp():
                    return time.time()  # iwarplint: disable=IW401
            """,
        })
        assert lint_paths([root]) == []

    def test_line_pragma_does_not_suppress_other_rules(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                import time

                def stamp():
                    return time.time()  # iwarplint: disable=IW403
            """,
        })
        assert codes(lint_paths([root])) == ["IW401"]

    def test_file_pragma_suppresses_whole_file(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                # iwarplint: disable-file=IW401
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert lint_paths([root]) == []


# ---------------------------------------------------------------------------
# The real stack, and the CLI entry points
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_src_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"]) == []

    def test_cli_clean_run_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_reports_violations_with_exit_one(self, tmp_path):
        write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                import time

                NOW = time.time()
            """,
        })
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", str(tmp_path)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "IW401" in proc.stdout

    def test_cli_missing_path_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", str(tmp_path / "nope")],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "IW201" in proc.stdout and "IW403" in proc.stdout

    def test_cli_json_format_reports_violations(self, tmp_path):
        write_tree(tmp_path, {
            "repro/simnet/clocky.py": """
                import time

                NOW = time.time()
            """,
        })
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", str(tmp_path), "--format", "json"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["tool"] == "iwarplint"
        assert payload["count"] == len(payload["violations"]) == 1
        assert payload["files"] == 1
        violation = payload["violations"][0]
        assert violation["rule"] == "IW401"
        assert violation["path"].endswith("clocky.py")
        assert violation["line"] > 0

    def test_cli_json_format_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", "src", "--format", "json"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["violations"] == []

    def test_cli_unknown_select_code_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", "src", "--select", "IW9,IW201"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "IW9" in proc.stderr and "IW201" not in proc.stderr

    def test_cli_valid_select_prefix_accepted(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iwarplint", "src", "--select", "IW2"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
