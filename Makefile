PYTHON ?= python
ARTIFACTS ?= artifacts

.PHONY: lint test check verify-fsm obs-check results-check digest-check perfbench

lint:
	bash scripts/check.sh

test:
	$(PYTHON) -m pytest -x -q

check: lint test

# Full FSM pipeline: model-check the four machines + the RC product,
# run the suite under the transition-coverage sanitizer, then gate the
# recording against the declared tables (waivers in
# tools/iwarpcheck/waivers.txt). Reports land in $(ARTIFACTS)/.
verify-fsm:
	mkdir -p $(ARTIFACTS)
	$(PYTHON) -m iwarpcheck check --output $(ARTIFACTS)/model-check.json
	IWARP_FSM_COVERAGE=$(ARTIFACTS)/fsm-records.json PYTHONPATH=src \
		$(PYTHON) -m pytest -q
	$(PYTHON) -m iwarpcheck coverage $(ARTIFACTS)/fsm-records.json \
		--output $(ARTIFACTS)/coverage-report.json

# Observability gate: metrics must not perturb the simulation (the
# determinism test), exporters and the python -m repro.obs CLI must hold
# their golden formats, the series-* catalogue rows must export the
# series tests/golden/scenarios.json pins, and the golden WR-lifecycle
# span sequences must be intact.
obs-check:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/obs/test_determinism.py \
		tests/obs/test_export.py \
		tests/obs/test_series_golden.py \
		tests/obs/test_spans.py

# Figure gate: regenerate every results/*.json from the simulated
# benchmarks and fail if any paper figure number moved.
results-check:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q --benchmark-disable
	git diff --exit-code results/

# Behaviour contract for hot-path changes: the wire digests and the
# events/calls/peak-heap cost counters of the scenario catalogue's digest
# rows (pinned in tests/golden/scenarios.json), two of those rows' digests
# under two hash seeds in fresh processes, and the same-process
# determinism matrix over the fig07 rows. A change that claims to be
# bit-identical passes this unchanged. Reprint the golden file with
# PYTHONPATH=src python -m repro.bench.scenarios > tests/golden/scenarios.json
digest-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/integration/test_wire_digest.py \
		tests/integration/test_cross_process_determinism.py \
		tests/properties/test_determinism_matrix.py

# Benchmark smoke: the tracer and driver tests, short runs at two seeds
# (every round is checked against perfbench/reference.json, which no seed
# may change, and any drift exits nonzero) and a short traced run that
# writes the per-layer ledger and spans to .perfbench_out/.
perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --seed 1
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --seed 2
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --trace 1
