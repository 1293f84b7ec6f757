"""Cross-process determinism: a scenario's wire digest does not depend
on the process that runs it.

The determinism matrix (``tests/properties/test_determinism_matrix.py``)
repeats runs inside one process, so it cannot see state that differs
between processes: the string-hash salt, or a memory address that leaks
into the simulation.  Here two catalogue rows run in fresh interpreters
under ``PYTHONHASHSEED`` 1 and 2, and every digest must equal the
pinned one: RD under the chaos pipeline (retransmission, SACK and
reordering state) and a UD send/recv ping-pong (verbs post and poll, CQ
wake-ups, RDMAP/DDP matching).

SIP is left out on purpose: its From tag is derived from the builtin
``hash()`` of the user name (``repro.apps.sip.messages``), so a SIP
digest changes with the hash seed.  A SIP row joins this check once
that tag is derived deterministically.

``make digest-check`` runs this file with the wire-digest goldens.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest


_REPO = Path(__file__).resolve().parents[2]

ROWS = ["rd_sendrecv-chaos", "ud_sendrecv-pingpong-64"]
HASH_SEEDS = (1, 2)


def digest_in_subprocess(name, hash_seed):
    """The row's digest, computed in a new interpreter."""
    code = f"from repro.bench.scenarios import run; print(run({name!r}).digest)"
    env = {
        key: value for key, value in os.environ.items()
        if key != "IWARP_OBS_DUMP"
    }
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(_REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=_REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("name", ROWS)
def test_digest_is_equal_across_hash_seeds(golden, name):
    digests = [digest_in_subprocess(name, seed) for seed in HASH_SEEDS]
    assert digests == [golden[name]["digest"]] * len(HASH_SEEDS)
