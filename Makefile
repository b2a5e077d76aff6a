# Convenience targets; CI (.github/workflows/ci.yml) runs `test`,
# `check-baselines`, `lint`, `examples` and the six `smoke-*` targets on
# every push.
#
# Every gated suite is one row of src/repro/harness/ledger.py: a smoke
# target runs its pytest subset, then `python -m repro bench <suite>`
# (the command exits 1 on any failed bar), then `bench --check` on the
# written report and on the committed baseline.  `smoke-mp` and
# `smoke-bench` gate no suite: the first runs the process executor's full
# test matrix, the second bench/ (the wall clock, bench/README.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

TMP ?= /tmp/repro_smoke
BASELINES := benchmarks/baselines

.PHONY: test check-baselines lint examples smoke-obs smoke-fusion smoke-mp smoke-verify smoke-fleet smoke-bench bench clean

# tier-1: the full unit/integration/property suite (serving tests included)
test:
	$(PYTHON) -m pytest -x -q

# every committed record must hold its suite's bars, whether or not that
# suite's smoke target ran (BENCH_paper.json: the paper's tables and figures
# at their complete grids; CI measures their smoke grids in the same step)
check-baselines:
	$(PYTHON) -m repro bench --check $(BASELINES)/BENCH_*.json

# AST lint over the whole package, the tools, the examples and the tests:
# fork-unsafe payload captures, shm use-after-close, late-bound loop
# variables, GEMMs under the pointwise turn, mutable defaults, swallowed
# exceptions, float64 creep in the kernels (repro/kernels only).  Zero
# findings required; waive individual lines with `# lint: waive <rule>`.
lint:
	$(PYTHON) -m repro analyze --skip-graph --lint src/repro
	$(PYTHON) -m repro analyze --skip-graph --lint tools
	$(PYTHON) -m repro analyze --skip-graph --lint examples
	$(PYTHON) -m repro analyze --skip-graph --lint tests

# every example script, run to completion (~70 s); the lint above reads
# them but cannot catch a call that fails at run time
examples:
	for script in examples/*.py; do $(PYTHON) $$script > /dev/null || exit 1; done

# observability smoke: the obs-layer unit tests, then the metrics-overhead
# A/B — strict ≤2 % budget on the committed record, tenancy slack on the
# freshly-measured smoke run
smoke-obs:
	$(PYTHON) -m pytest tests/obs -x -q
	$(PYTHON) -m repro bench obs_overhead --output $(TMP)_obs.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_obs.json $(BASELINES)/BENCH_obs_overhead.json

# fusion smoke (hoisting, tile): the numerical-equivalence and
# flop-accounting tests and the granularity policy's table and engine
# conformance, then the reduced-size ablation (laptop-scale shapes carry no
# speed-up claim; those bars apply to the paper-scale record)
smoke-fusion:
	$(PYTHON) -m pytest tests/core/test_fusion.py tests/core/test_fused_projection.py \
		tests/core/test_granularity_policy.py tests/kernels/test_flops_accounting.py -x -q
	$(PYTHON) -m repro bench fusion --output $(TMP)_fusion.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_fusion.json $(BASELINES)/BENCH_fusion.json

# multiprocess-executor smoke: the full cross-executor conformance,
# fault-injection, shm-arena property and schedule-fuzz sweeps, the
# `slow_mp` legs included (its speed is bench/'s `train_gemm_process`:
# `runtime.mp_vs_threaded`, docs/EXECUTORS.md)
smoke-mp:
	$(PYTHON) -m pytest tests/runtime/test_executor_conformance.py \
		tests/runtime/test_mpexec_faults.py tests/properties/test_shm_arena.py \
		tests/runtime/test_schedule_fuzz.py -x -q -m "slow_mp or not slow_mp"

# dependence-proof smoke: the proof's, the dynamic instruments' and the
# AST lint's own tests (the mutation table, the adversarial edge-drop /
# shrink / widen properties, schedule fuzz and golden replay); then the
# proof, the observed-versus-declared diff and five fuzzed schedules on a
# per-step, a hoisted-projection and a tiled train graph (any finding or
# divergence exits 1); then the full family-matrix certificate (exit 1
# unless every family certifies, every mutation kind is detected with its
# exact pair, and every certified instance is observed without a finding);
# then one gate over the first graph's report, the paper-scale record and
# the certificate (suites
# `graph_analysis` and `verify` of the ledger); then the conformance cells
# the certificate lets tier-1 skip (`addopts` deselects the `certified`
# marker), each proved and observed
OBSERVE := $(PYTHON) -m repro analyze --hidden 8 --layers 2 --input-size 6 \
	--seq-len 5 --batch 8 --mbs 2 --observe --fuzz-seeds 5
smoke-verify:
	$(PYTHON) -m pytest tests/analysis/test_symbolic.py tests/analysis/test_verify.py \
		tests/analysis/test_graphlint.py tests/analysis/test_pylint.py \
		tests/properties/test_verify_properties.py \
		tests/runtime/test_racecheck.py tests/runtime/test_schedule_fuzz.py -x -q
	$(OBSERVE) --fused-input-projection off --output $(TMP)_analysis.json
	$(OBSERVE) --fused-input-projection on --proj-block 2
	$(OBSERVE) --fused-input-projection off --wavefront-tile 2
	$(PYTHON) -m repro analyze --skip-graph --verify \
		--verify-output $(TMP)_verify_cert.json
	$(PYTHON) -m repro bench --check $(TMP)_analysis.json \
		$(BASELINES)/BENCH_graph_analysis.json $(TMP)_verify_cert.json
	$(PYTHON) -m pytest -m certified -x -q

# serving smoke: the serve-layer unit tests (config, router, admission,
# continuous batching, the one FleetServer loop), then the calibrated soak
# (deterministic: the simulated clock, so its `results` must equal the
# committed record's, whose size it runs)
smoke-fleet:
	$(PYTHON) -m pytest tests/serve -x -q
	$(PYTHON) -m repro bench fleet --output $(TMP)_fleet.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_fleet.json $(BASELINES)/BENCH_fleet.json
	$(PYTHON) -c 'import json, sys; fresh, rec = (json.load(open(p))["results"] for p in sys.argv[1:]); \
		sys.exit(fresh != rec and "bench fleet: results differ from " + sys.argv[2])' \
		$(TMP)_fleet.json $(BASELINES)/BENCH_fleet.json

# the wall-clock benchmark at --quick: every workload runs and prints
# every metric BENCHMARK.json declares (bench/README.md)
smoke-bench:
	$(PYTHON) -m pytest bench/test_smoke.py -q

# regenerate every paper table and figure at the paper's complete grids and
# rewrite $(BASELINES)/BENCH_paper.json (18 min on the recording host)
bench:
	$(PYTHON) -m repro bench paper --record > /dev/null

clean:
	rm -f $(TMP)_*.json
