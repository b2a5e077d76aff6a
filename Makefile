# Convenience targets; CI (.github/workflows/ci.yml) runs `test`,
# `check-baselines`, `lint` and every `smoke-*` target on every push.
#
# Every gated suite is one row of src/repro/harness/ledger.py: a smoke
# target runs its pytest subset, then `python -m repro bench <suite>`
# (the command exits 1 on any failed bar), then `bench --check` on the
# written report and on the committed baseline.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

TMP ?= /tmp/repro_smoke
BASELINES := benchmarks/baselines

.PHONY: test check-baselines lint smoke-serving smoke-racecheck smoke-analysis smoke-obs smoke-compile smoke-fusion smoke-mp smoke-verify smoke-fleet smoke-bench bench serve-bench clean

# tier-1: the full unit/integration/property suite (serving tests included)
test:
	$(PYTHON) -m pytest -x -q

# every committed record must hold its suite's bars, whether or not that
# suite's smoke target ran (BENCH_paper.json: the paper's tables and figures
# at their complete grids; CI measures their smoke grids in the same step)
check-baselines:
	$(PYTHON) -m repro bench --check $(BASELINES)/BENCH_*.json

# fast serving smoke: tiny config end-to-end through the real CLI, then a
# hard failure on any regression in the reported JSON schema
smoke-serving:
	$(PYTHON) -m repro serve-bench \
		--arrival-rate 50 --duration 0.3 --executor sim \
		--max-batch-size 8 --hidden 16 --layers 2 --input-size 8 \
		--seq-min 8 --seq-max 24 --bucket-width 8 --mbs 1 \
		--output $(TMP)_serving.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_serving.json

# AST lint over the whole package: payload-closure capture audit,
# mutable defaults, swallowed exceptions, float64 creep in the kernels.
# Zero findings required; waive individual lines with `# lint: waive <rule>`.
lint:
	$(PYTHON) -m repro analyze --skip-graph --lint src/repro

# static-analysis smoke: the analysis suite's own tests (graph linter,
# over-declaration analyzer, AST lint, 64-config conformance sweep), then
# a tiny graph end-to-end through the real CLI; zero findings and the
# serialization-debt budget hold on it and on the paper-scale record
smoke-analysis:
	$(PYTHON) -m pytest tests/analysis/test_graphlint.py tests/analysis/test_pylint.py tests/analysis/test_analysis_conformance.py -x -q
	$(PYTHON) -m repro analyze \
		--hidden 5 --layers 2 --input-size 6 --seq-len 4 --batch 4 --mbs 2 \
		--output $(TMP)_analysis.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_analysis.json $(BASELINES)/BENCH_graph_analysis.json

# observability smoke: the obs-layer unit tests, then the scheduler-counter
# comparison + metrics-overhead A/B — strict ≤2 % budget on the committed
# record, tenancy slack on the freshly-measured smoke run
smoke-obs:
	$(PYTHON) -m pytest tests/obs -x -q
	$(PYTHON) -m repro bench obs_overhead --output $(TMP)_obs.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_obs.json $(BASELINES)/BENCH_obs_overhead.json

# race-detector smoke: the checker's own unit tests, then the mutation
# self-test gate through the real CLI on a per-step, a hoisted-projection
# and a tiled train graph (clean graph -> zero findings; each
# seeded dependence deletion -> detected; fuzzed schedules -> bitwise
# identical to FIFO; any miss exits 1)
RACECHECK := $(PYTHON) -m repro racecheck --hidden 8 --layers 2 --input-size 6 \
	--seq-len 5 --batch 8 --mbs 2 --mutations 5 --fuzz-seeds 5
smoke-racecheck:
	$(PYTHON) -m pytest tests/runtime/test_racecheck.py tests/runtime/test_schedule_fuzz.py -x -q
	$(RACECHECK) --fused-input-projection off
	$(RACECHECK) --fused-input-projection on --proj-block 2
	$(RACECHECK) --fused-input-projection off --wavefront-tile 2

# compiled-replay smoke: the compile-package unit tests + mutated-plan
# regression + the serving engine on the plan cache, then the reduced-size overhead A/B vs both dynamic policies,
# warm-shape cache hit rate and bitwise equivalence
smoke-compile:
	$(PYTHON) -m pytest tests/compile/test_plan.py tests/compile/test_compiler.py \
		tests/compile/test_cache.py tests/compile/test_check_plan.py \
		tests/compile/test_executor_replay.py \
		tests/serve/test_engine_compile.py -x -q
	$(PYTHON) -m repro bench compile --output $(TMP)_compile.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_compile.json $(BASELINES)/BENCH_compile.json

# fusion smoke (kernel, hoisting, tile): the numerical-equivalence +
# flop-conservation tests, then the reduced-size ablation (laptop-scale
# shapes carry no speed-up claim; those bars apply to the paper-scale record)
smoke-fusion:
	$(PYTHON) -m pytest tests/core/test_fusion.py tests/core/test_fused_projection.py \
		tests/kernels/test_flops_accounting.py -x -q
	$(PYTHON) -m repro bench fusion --output $(TMP)_fusion.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_fusion.json $(BASELINES)/BENCH_fusion.json

# multiprocess-executor smoke: the full cross-executor conformance,
# fault-injection, shm-arena property and schedule-fuzz sweeps (the
# `slow_mp` legs included), then a tiny substrate comparison — bitwise +
# zero-leak always; speed-up bars only on ≥2-core recordings
smoke-mp:
	$(PYTHON) -m pytest tests/runtime/test_executor_conformance.py \
		tests/runtime/test_mpexec_faults.py tests/properties/test_shm_arena.py \
		tests/runtime/test_schedule_fuzz.py -x -q -m "slow_mp or not slow_mp"
	$(PYTHON) -m repro bench multiproc --output $(TMP)_mp.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_mp.json $(BASELINES)/BENCH_multiproc.json

# symbolic-verifier smoke: the affine-algebra units, the verifier's own
# positive/negative/mutation tests and the adversarial edge-drop /
# shrink / widen properties, then the full family-matrix certificate
# end-to-end through the real CLI (--strict: any uncertified family,
# missed mutation, or dynamic cross-validation finding is nonzero),
# then the certificate gate (suite `verify` of the ledger), then the
# conformance cells the certificate lets tier-1 skip (`addopts` deselects
# the `certified` marker)
smoke-verify:
	$(PYTHON) -m pytest tests/analysis/test_symbolic.py \
		tests/analysis/test_verify.py \
		tests/properties/test_verify_properties.py -x -q
	$(PYTHON) -m repro analyze --skip-graph --verify --strict \
		--verify-output $(TMP)_verify_cert.json
	$(PYTHON) -m repro bench --check $(TMP)_verify_cert.json
	$(PYTHON) -m pytest -m certified -x -q

# fleet-serving smoke: the serve-layer unit tests (config, router,
# admission, continuous batching, fleet loop), then the calibrated soak
# (deterministic: the simulated clock)
smoke-fleet:
	$(PYTHON) -m pytest tests/serve -x -q
	$(PYTHON) -m repro bench fleet --output $(TMP)_fleet.json > /dev/null
	$(PYTHON) -m repro bench --check $(TMP)_fleet.json $(BASELINES)/BENCH_fleet.json

# the wall-clock benchmark at --quick: every workload runs and prints
# every metric BENCHMARK.json declares (bench/README.md)
smoke-bench:
	$(PYTHON) -m pytest bench/test_smoke.py -q

# regenerate every paper table and figure at the paper's complete grids and
# rewrite $(BASELINES)/BENCH_paper.json (18 min on the recording host)
bench:
	$(PYTHON) -m repro bench paper --record > /dev/null

# the acceptance-criteria serving run (paper machine, 200 req/s, 5 s)
serve-bench:
	$(PYTHON) -m repro serve-bench --arrival-rate 200 --duration 5 --executor sim

clean:
	rm -f $(TMP)_*.json
