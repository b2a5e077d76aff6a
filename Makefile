# Convenience targets; CI (.github/workflows/ci.yml) runs `test`, `lint`,
# `smoke-serving`, `smoke-fused`, `smoke-racecheck`, `smoke-analysis`,
# `smoke-obs`, `smoke-compile`, `smoke-fusion`, `smoke-mp`,
# `smoke-verify`, `smoke-fleet` and `smoke-bench` on every push.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_REPORT ?= /tmp/repro_serving_smoke.json
SMOKE_FUSED_REPORT ?= /tmp/repro_fused_smoke.json
SMOKE_ANALYSIS_REPORT ?= /tmp/repro_analysis_smoke.json
SMOKE_OBS_REPORT ?= /tmp/repro_obs_smoke.json
SMOKE_COMPILE_REPORT ?= /tmp/repro_compile_smoke.json
SMOKE_FUSION_REPORT ?= /tmp/repro_fusion_smoke.json
SMOKE_MP_REPORT ?= /tmp/repro_mp_smoke.json
SMOKE_VERIFY_CERT ?= /tmp/repro_verify_cert.json
SMOKE_FLEET_REPORT ?= /tmp/repro_fleet_smoke.json
# CI runners are noisy shared tenants: the committed baseline records the
# ≤2 % claim; the freshly-measured smoke run gets slack against tenancy.
SMOKE_OBS_BUDGET ?= 1.10

.PHONY: test lint smoke-serving smoke-fused smoke-racecheck smoke-analysis smoke-obs smoke-compile smoke-fusion smoke-mp smoke-verify smoke-fleet smoke-bench bench fused-bench fusion-bench multiproc-bench serve-bench fleet-bench clean

# tier-1: the full unit/integration/property suite (serving tests included)
test:
	$(PYTHON) -m pytest -x -q

# fast serving smoke: tiny config end-to-end through the real CLI, then a
# hard failure on any regression in the reported JSON schema
smoke-serving:
	$(PYTHON) -m repro serve-bench \
		--arrival-rate 50 --duration 0.3 --executor sim \
		--max-batch-size 8 --hidden 16 --layers 2 --input-size 8 \
		--seq-min 8 --seq-max 24 --bucket-width 8 --mbs 1 \
		--output $(SMOKE_REPORT) > /dev/null
	$(PYTHON) tools/check_serving_report.py $(SMOKE_REPORT)

# fast fused-projection smoke: numerical-equivalence tests, then a tiny
# ablation end-to-end through the real CLI, then the JSON schema gate
smoke-fused:
	$(PYTHON) -m pytest tests/core/test_fused_projection.py tests/kernels/test_flops_accounting.py -x -q
	$(PYTHON) -m repro fused-bench \
		--cell lstm --input-size 256 --hidden 32 --layers 2 \
		--seq-len 24 --batch 8 --iters 3 --mbs 1 \
		--output $(SMOKE_FUSED_REPORT) > /dev/null
	$(PYTHON) tools/check_bench_report.py $(SMOKE_FUSED_REPORT)

# AST lint over the whole package: payload-closure capture audit,
# mutable defaults, swallowed exceptions, float64 creep in the kernels.
# Zero findings required; waive individual lines with `# lint: waive <rule>`.
lint:
	$(PYTHON) -m repro analyze --skip-graph --lint src/repro

# static-analysis smoke: the analysis suite's own tests (graph linter,
# over-declaration analyzer, AST lint, 64-config conformance sweep), then
# a tiny graph end-to-end through the real CLI, then the JSON gate that
# enforces zero findings and the serialization-debt budget — on both the
# smoke report and the committed paper-scale baseline
smoke-analysis:
	$(PYTHON) -m pytest tests/analysis/test_graphlint.py tests/analysis/test_pylint.py tests/analysis/test_analysis_conformance.py -x -q
	$(PYTHON) -m repro analyze \
		--hidden 5 --layers 2 --input-size 6 --seq-len 4 --batch 4 --mbs 2 \
		--output $(SMOKE_ANALYSIS_REPORT) > /dev/null
	$(PYTHON) tools/check_analysis.py $(SMOKE_ANALYSIS_REPORT) \
		benchmarks/baselines/BENCH_graph_analysis.json

# observability smoke: the obs-layer unit tests, then the scheduler-counter
# comparison + metrics-overhead A/B end-to-end through the real CLI, then
# the JSON gate — strict ≤2 % budget on the committed baseline, tenancy
# slack on the freshly-measured smoke run
smoke-obs:
	$(PYTHON) -m pytest tests/obs -x -q
	$(PYTHON) -m repro obs-report \
		--policy locality --compare fifo --cores 16 \
		--seq-len 30 --batch 8 --mbs 2 --iters 7 \
		--overhead-budget $(SMOKE_OBS_BUDGET) \
		--output $(SMOKE_OBS_REPORT) > /dev/null
	$(PYTHON) tools/check_obs_report.py --budget $(SMOKE_OBS_BUDGET) $(SMOKE_OBS_REPORT)
	$(PYTHON) tools/check_obs_report.py benchmarks/baselines/BENCH_obs_overhead.json

# race-detector smoke: the checker's own unit tests, then the mutation
# self-test gate (clean graph -> zero findings; each seeded dependence
# deletion -> detected; fuzzed schedules -> bitwise identical to FIFO)
smoke-racecheck:
	$(PYTHON) -m pytest tests/runtime/test_racecheck.py tests/runtime/test_schedule_fuzz.py -x -q
	$(PYTHON) tools/check_racecheck.py

# compiled-replay smoke: the compile-package unit tests + mutated-plan
# regression, then a reduced-size compile-bench end-to-end through the
# real CLI (overhead A/B vs both dynamic policies, warm-shape cache hit
# rate, bitwise equivalence), then the JSON gate — on both the fresh
# smoke report and the committed paper-scale baseline
smoke-compile:
	$(PYTHON) -m pytest tests/compile/test_plan.py tests/compile/test_compiler.py \
		tests/compile/test_cache.py tests/compile/test_check_plan.py \
		tests/compile/test_executor_replay.py -x -q
	$(PYTHON) -m repro compile-bench \
		--hidden 32 --layers 2 --input-size 16 --seq-len 20 --batch 8 \
		--mbs 2 --iters 8 --repeats 3 \
		--output $(SMOKE_COMPILE_REPORT) > /dev/null
	$(PYTHON) tools/check_compile_report.py $(SMOKE_COMPILE_REPORT)
	$(PYTHON) tools/check_compile_report.py benchmarks/baselines/BENCH_compile.json

# fusion-ladder smoke: the numerical-equivalence + flop-conservation
# tests, then a reduced-size ablation end-to-end through the real CLI
# (threaded ladder, simulated critical path, wavefront-vs-layered static
# contrast), then the JSON gate — schema-only on the fresh smoke run
# (laptop-scale shapes carry no speed-up claim), full 1.5×/0.686 bars on
# the committed paper-scale baseline
smoke-fusion:
	$(PYTHON) -m pytest tests/core/test_fusion.py tests/kernels/test_flops_accounting.py -x -q
	$(PYTHON) -m repro fusion-bench \
		--cell lstm --input-size 256 --hidden 32 --layers 2 \
		--seq-len 24 --batch 8 --iters 3 --mbs 1 \
		--output $(SMOKE_FUSION_REPORT) > /dev/null
	$(PYTHON) tools/check_fusion_report.py --min-speedup 0 $(SMOKE_FUSION_REPORT)
	$(PYTHON) tools/check_fusion_report.py --min-speedup 1.5 \
		benchmarks/baselines/BENCH_fusion.json

# multiprocess-executor smoke: the full cross-executor conformance,
# fault-injection, shm-arena property and schedule-fuzz sweeps (the
# `slow_mp` legs included), then a tiny substrate comparison end-to-end
# through the real CLI, then the JSON gate — bitwise + zero-leak always;
# speed-up bars only on ≥2-core recordings — on both the fresh smoke
# report and the committed paper-scale baseline
smoke-mp:
	$(PYTHON) -m pytest tests/runtime/test_executor_conformance.py \
		tests/runtime/test_mpexec_faults.py tests/properties/test_shm_arena.py \
		tests/runtime/test_schedule_fuzz.py -x -q -m "slow_mp or not slow_mp"
	$(PYTHON) -m repro multiproc-bench \
		--cell gru --input-size 64 --hidden 32 --layers 2 \
		--seq-len 16 --batch 8 --iters 2 --mbs 2 \
		--output $(SMOKE_MP_REPORT) > /dev/null
	$(PYTHON) tools/check_multiproc_report.py $(SMOKE_MP_REPORT)
	$(PYTHON) tools/check_multiproc_report.py benchmarks/baselines/BENCH_multiproc.json

# symbolic-verifier smoke: the affine-algebra units, the verifier's own
# positive/negative/mutation tests and the adversarial edge-drop /
# shrink / widen properties, then the full 96-family certificate
# end-to-end through the real CLI (--strict: any uncertified family,
# missed mutation, or dynamic cross-validation finding is nonzero),
# then the standalone certificate gate
smoke-verify:
	$(PYTHON) -m pytest tests/analysis/test_symbolic.py \
		tests/analysis/test_verify.py \
		tests/properties/test_verify_properties.py -x -q
	$(PYTHON) -m repro analyze --skip-graph --verify --strict \
		--verify-output $(SMOKE_VERIFY_CERT)
	$(PYTHON) tools/check_verify.py $(SMOKE_VERIFY_CERT)

# fleet-serving smoke: the serve-layer unit tests (config shim, router,
# admission, continuous batching, fleet loop), then the calibrated soak
# end-to-end through the real CLI (the command itself exits nonzero when
# a bar fails), then the JSON gate — on both the fresh smoke report and
# the committed paper-scale baseline
smoke-fleet:
	$(PYTHON) -m pytest tests/serve -x -q
	$(PYTHON) -m repro fleet-bench --output $(SMOKE_FLEET_REPORT) > /dev/null
	$(PYTHON) tools/check_fleet_report.py $(SMOKE_FLEET_REPORT)
	$(PYTHON) tools/check_fleet_report.py benchmarks/baselines/BENCH_fleet.json

# the wall-clock benchmark at --quick: every workload runs and prints
# every metric BENCHMARK.json declares (bench/README.md)
smoke-bench:
	$(PYTHON) -m pytest bench/test_smoke.py -q

# regenerate every paper table/figure + the serving sweep (minutes)
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# the acceptance-criteria fused-projection ablation (paper-scale input),
# recording benchmarks/baselines/BENCH_fused_projection.json
fused-bench:
	$(PYTHON) -m pytest benchmarks/bench_fused_projection.py --benchmark-only -q

# the acceptance-criteria fusion-ladder ablation (paper-scale input),
# recording benchmarks/baselines/BENCH_fusion.json
fusion-bench:
	$(PYTHON) -m pytest benchmarks/bench_fusion.py --benchmark-only -q

# the acceptance-criteria executor substrate comparison (paper-scale
# GIL-bound shape), recording benchmarks/baselines/BENCH_multiproc.json
multiproc-bench:
	$(PYTHON) -m pytest benchmarks/bench_multiproc.py --benchmark-only -q

# the acceptance-criteria serving run (paper machine, 200 req/s, 5 s)
serve-bench:
	$(PYTHON) -m repro serve-bench --arrival-rate 200 --duration 5 --executor sim

# the acceptance-criteria fleet soak (4 replicas, calibrated rates),
# recording benchmarks/baselines/BENCH_fleet.json
fleet-bench:
	$(PYTHON) -m repro fleet-bench --output benchmarks/baselines/BENCH_fleet.json

clean:
	rm -f $(SMOKE_REPORT) $(SMOKE_FUSED_REPORT) $(SMOKE_ANALYSIS_REPORT) \
		$(SMOKE_OBS_REPORT) $(SMOKE_COMPILE_REPORT) $(SMOKE_FUSION_REPORT) \
		$(SMOKE_MP_REPORT) $(SMOKE_VERIFY_CERT) $(SMOKE_FLEET_REPORT) \
		serving_report.json
