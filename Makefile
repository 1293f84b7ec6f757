PYTHON ?= python
ARTIFACTS ?= artifacts

.PHONY: lint test check examples explore obs-check results-check digest-check perfbench reach-check

lint:
	bash scripts/check.sh

test:
	$(PYTHON) -m pytest -x -q

check: lint test

# Run the six examples/*.py scripts end to end; any nonzero exit fails.
examples:
	@for f in examples/*.py; do \
		echo "==> $$f"; \
		PYTHONPATH=src $(PYTHON) $$f || exit 1; \
	done

# Fault-schedule explorer (CI's explore job; a few minutes): run each
# short explore-* catalogue row on the live stack under every schedule
# of up to 2 faults over its first 24 frames and check the oracles
# (DESIGN.md §7). One process per row, all five at once; each writes
# its runs, the RC composites it reached and any counterexample (row +
# replayable schedule) to $(ARTIFACTS)/explore-<row>.json.
EXPLORE_ROWS = rc_sendrecv rcsctp_sendrecv rd_sendrecv ud_write_record ud_sendrecv

explore:
	mkdir -p $(ARTIFACTS)
	$(MAKE) -j5 -k $(EXPLORE_ROWS:%=explore-%)

explore-%:
	PYTHONPATH=src $(PYTHON) -m iwarpcheck explore --row explore-$* \
		--output $(ARTIFACTS)/explore-$*.json

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
# benchmarks (each checks its rows of repro.bench.claims.CLAIMS), render
# the EXPERIMENTS.md tables from them, and fail if any paper figure
# number or table moved, or if a run left a results file git does not
# track yet.
results-check:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q --benchmark-disable
	PYTHONPATH=src $(PYTHON) -m repro.bench.claims
	git diff --exit-code results/ EXPERIMENTS.md
	@test -z "$$(git status --porcelain results/ EXPERIMENTS.md)" || \
		{ git status --porcelain results/ EXPERIMENTS.md; exit 1; }

# Reach pass (CI's reach-check job; several minutes): run tier-1, then
# benchmarks/, under sys.settrace and fail on any repro function neither
# calls that scripts/reach_check.py's ALLOWED table (one reason per
# entry) does not name, or on an allowed one that is called after all.
# The benchmark pass regenerates results/ as results-check does.
reach-check:
	PYTHONPATH=src $(PYTHON) scripts/reach_check.py

# Behaviour contract for hot-path changes: the wire digests and the
# events/calls/peak-heap cost counters of the scenario catalogue's digest
# rows (pinned in tests/golden/scenarios.json), two of those rows' digests
# under two hash seeds in fresh processes, the same-process determinism
# matrix over the fig07 rows, the fig10/fig11 SIP runs through the socket
# interface (digest, events, CPU busy time and outputs under one hash
# seed, pinned in tests/integration/test_socket_path_pin.py), and the
# engine and CPU contracts those rows rest on (event order, cancel and
# rearm, time and cost conversion to int, FIFO CPU accounting, and the
# mailbox's FIFO hand-off that the pinned RC accepts go through). A change
# that claims to be bit-identical passes this unchanged. Reprint the
# golden file with
# PYTHONPATH=src python -m repro.bench.scenarios > tests/golden/scenarios.json
digest-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/integration/test_wire_digest.py \
		tests/integration/test_socket_path_pin.py \
		tests/integration/test_cross_process_determinism.py \
		tests/properties/test_determinism_matrix.py \
		tests/simnet/test_engine_timers.py \
		tests/simnet/test_engine_rearm.py \
		tests/simnet/test_mailbox.py \
		tests/simnet/test_cpu.py

# Benchmark smoke: the tracer and driver tests, short runs at two seeds
# (every round is checked against perfbench/reference.json, which no seed
# may change, and any drift exits nonzero) and a short traced run that
# writes the per-layer ledger and spans to .perfbench_out/.
perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --seed 1
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --seed 2
	$(PYTHON) perfbench/run.py --workload all --seconds 2 --trace 1
