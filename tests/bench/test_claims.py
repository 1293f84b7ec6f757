"""The claim table against the committed results: no simulation runs.

Every ``CLAIMS`` row must hold on ``results/*.json`` and EXPERIMENTS.md
must equal its render, so a hand-edited results file or table fails
here and not only in ``make results-check``.
"""

import copy

import pytest

from repro.bench.claims import CLAIMS, EXPERIMENTS_MD, check, failures, load_results, render

RESULTS = load_results()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.num)
def test_claim_holds_on_committed_results(claim):
    assert failures(claim, claim.values(RESULTS)) == []


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.num)
def test_claim_reads_only_existing_results_keys(claim):
    try:
        values = claim.values(RESULTS)
    except KeyError as missing:
        pytest.fail(f"claim {claim.num} reads a key results/ lacks: {missing}")
    assert set(claim.bounds) <= set(values)
    claim.measured.format(**values)


def test_experiments_md_equals_its_render():
    text = EXPERIMENTS_MD.read_text()
    assert render(text, RESULTS) == text


def test_check_raises_on_a_broken_bound():
    results = copy.deepcopy(RESULTS)
    results["fig10_sip_response"]["ud_ms"] = 0.9
    check("fig09", results)
    with pytest.raises(AssertionError, match="claim 17: ud = 0.9 outside"):
        check("fig10", results)
