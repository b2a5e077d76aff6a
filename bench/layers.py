"""Per-layer metrics of a traced run; a layer is a module of ``repro``.

Inputs are the spans the benchmark recorded around public calls
(:mod:`spans`), the ``ExecutionTrace`` each ``executor.run`` returned, the
``FleetStats`` each ``FleetServer.run`` returned, and a few direct calls that
time one layer alone (a kernel, the serial executor, the sequential oracle).
A metric that does not exist on a workload is reported as 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

from repro import BRNNParams, InferenceEngine, SerialExecutor
from repro.kernels.lstm import lstm_backward_step, lstm_forward_step
from repro.models.reference import reference_forward, reference_train_step
from repro.runtime.trace import ExecutionTrace, percentile
from repro.serve import Batch, InferenceRequest

clock = time.perf_counter
median = statistics.median

#: task kinds whose share of worker busy time is reported
BUSY_KINDS = ("cell", "cell_bwd", "merge", "merge_bwd", "head", "weight_update")
#: share of the traced wall the layer sums must land within (both reconciliations)
RECONCILE_TOL = 0.05


def trace_stats(trace: ExecutionTrace) -> dict:
    """Tasks, busy seconds and flops of one execution, per task kind."""
    busy: Dict[str, float] = {}
    flops: Dict[str, float] = {}
    for r in trace.records:
        busy[r.kind] = busy.get(r.kind, 0.0) + (r.end - r.start)
        flops[r.kind] = flops.get(r.kind, 0.0) + r.flops
    return {
        "tasks": len(trace.records),
        "busy_s": sum(busy.values()),
        "busy": busy,
        "flops": flops,
        "efficiency": trace.parallel_efficiency(),
    }


def _timed(fn, reps: int) -> float:
    """Median wall seconds of ``fn()``."""
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return median(times)


def kernel_probes(out) -> float:
    """Single-thread sgemm peak and one LSTM step at the ``train_gemm`` chunk shape."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)).astype(np.float32)
    b = rng.standard_normal((512, 512)).astype(np.float32)
    peak = 2.0 * 512**3 / _timed(lambda: a @ b, 40) / 1e9
    out.put("kernels.gemm_peak_gflops", peak, 40)

    batch, inputs, hidden = 32, 128, 256  # B/mbs, I, H of train_gemm's first layer
    x = rng.standard_normal((batch, inputs)).astype(np.float32)
    h = rng.standard_normal((batch, hidden)).astype(np.float32)
    c = rng.standard_normal((batch, hidden)).astype(np.float32)
    W = (rng.standard_normal((inputs + hidden, 4 * hidden)) * 0.05).astype(np.float32)
    bias = np.zeros(4 * hidden, dtype=np.float32)
    out.put("kernels.lstm_fwd_us", _timed(lambda: lstm_forward_step(x, h, c, W, bias), 60) * 1e6, 60)
    cache = lstm_forward_step(x, h, c, W, bias)[2]
    dW, db = np.zeros_like(W), np.zeros_like(bias)
    out.put(
        "kernels.lstm_bwd_us",
        _timed(lambda: lstm_backward_step(h, c, cache, W, dW, db), 60) * 1e6, 60,
    )
    return peak


def kernel_shares(out, task_stats: Sequence[dict], peak_gflops: float) -> None:
    """Achieved GFLOP/s of the cell kernels and each kind's share of busy time."""
    busy: Dict[str, float] = {}
    flops: Dict[str, float] = {}
    for s in task_stats:
        for kind, v in s["busy"].items():
            busy[kind] = busy.get(kind, 0.0) + v
        for kind, v in s["flops"].items():
            flops[kind] = flops.get(kind, 0.0) + v
    total = sum(busy.values())
    for kind in ("cell", "cell_bwd"):
        rate = flops.get(kind, 0.0) / busy[kind] / 1e9 if busy.get(kind) else 0.0
        out.put(f"kernels.{kind}_gflops", rate, len(task_stats))
    out.put("kernels.cell_frac_of_peak", out.metrics["kernels.cell_gflops"][0] / peak_gflops)
    for kind in BUSY_KINDS:
        out.put(f"kernels.busy_share.{kind}", busy.get(kind, 0.0) / total if total else 0.0)


def executor_metrics(out, runs: Sequence[float], task_stats: Sequence[dict],
                     n_workers: int) -> None:
    """What one ``executor.run`` costs and how much of it is not task payload."""
    pairs = list(zip(runs, task_stats))
    if not pairs:
        return
    out.put("runtime.run_ms", median(runs) * 1e3, len(runs))
    out.put("runtime.task_busy_ms", median(s["busy_s"] for s in task_stats) * 1e3, len(pairs))
    out.put(
        "runtime.gap_per_task_us",
        median((n_workers * run - s["busy_s"]) / s["tasks"] for run, s in pairs) * 1e6,
        len(pairs),
    )
    out.put("runtime.parallel_efficiency", median(s["efficiency"] for s in task_stats), len(pairs))


def reconcile(out, name: str, parts: float, whole: float) -> None:
    """Layer sums over the independently timed whole; off by more than 5 % is a failure."""
    share = parts / whole if whole else 0.0
    out.info.setdefault("reconciliation", {})[name] = share
    if abs(share - 1.0) > RECONCILE_TOL:
        out.fail(f"reconciliation {name}: layers cover {share:.3f} of the traced wall")


# -- engine workloads ---------------------------------------------------------------


def engine_layers(workload, out, tracer, engine, plain, traced, task_stats, batches) -> None:
    n_workers = engine.executor.n_workers
    builds = tracer.durations("build_brnn_graph")
    runs = tracer.durations("executor.run")
    graph = engine.last_result.graph
    out.put("core.build_ms", median(builds) * 1e3, len(builds))
    out.put("core.tasks_per_graph", len(graph))
    out.put("core.edges_per_graph", graph.num_edges())
    executor_metrics(out, runs, task_stats, n_workers)
    out.put("runtime.step_p90_ms", percentile(plain, 90) * 1e3, len(plain))
    reconcile(out, "core.build_ms+runtime.run_ms over step_ms",
              sum(builds) + sum(runs), sum(tracer.durations("step")))
    out.put("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0, len(traced))

    # the same graph on the serial executor: what two workers bought
    serial = SerialExecutor()
    serial_runs: List[float] = []
    run = serial.run

    def timed_run(graph):
        t0 = clock()
        trace = run(graph)
        serial_runs.append(clock() - t0)
        return trace

    serial.run = timed_run
    serial_engine = workload.new_engine(workload.execution.replace(executor=serial))
    reps = 1 if workload.training else 3
    for _ in range(reps):
        workload.step(serial_engine, batches[0])
    out.put("runtime.serial_run_ms", median(serial_runs) * 1e3, reps)
    out.put("runtime.speedup_vs_serial", median(serial_runs) / median(runs))

    # the sequential oracle on the same batch: the plain single-threaded baseline
    x, labels = batches[0]
    params = BRNNParams.initialize(workload.spec, 0)
    if workload.training:
        reference = _timed(lambda: reference_train_step(workload.spec, params, x, labels, 0.05), 1)
    else:
        reference = _timed(lambda: reference_forward(workload.spec, params, x), 3)
    out.put("models.reference_step_ms", reference * 1e3, reps)
    out.put("models.speedup_vs_reference", reference / median(plain))

    if workload.execution.executor == "process":
        # the executor is the only difference from train_gemm: run that one on the
        # same graph, so the process manager's extra cost per task is a difference
        threaded = workload.new_engine(workload.execution.replace(executor="threaded"))
        with tracer.patched():
            before = len(runs)
            t_times, t_stats = workload.run_steps(
                threaded, batches, None, 0.0, out, tracer, min_steps=3
            )
        t_runs = tracer.durations("executor.run")[before:]
        t_gap = median((n_workers * r - s["busy_s"]) / s["tasks"] for r, s in zip(t_runs, t_stats))
        out.put("runtime.mp_gap_per_task_us",
                out.metrics["runtime.gap_per_task_us"][0] - t_gap * 1e6, len(t_runs))
        out.put("runtime.mp_vs_threaded", median(plain) / median(t_times), len(t_times))

    kernel_shares(out, task_stats, kernel_probes(out))


# -- serving workloads --------------------------------------------------------------

_STAGES = {
    "serve.admit_us": ("admit",),
    "serve.route_us": ("route",),
    "serve.queue_us": ("queue.push", "queue.expire", "queue.take"),
    "serve.batcher_us": ("batcher.next_batch", "batcher.next_flush_time"),
    "serve.stats_us": ("stats.record_shed", "stats.record_batch", "stats.record_completion",
                       "stats.record_routing", "stats.record_replica_depth"),
}


def serve_layers(workload, out, tracer, server, plain, traced, executions, plans) -> None:
    if not plain or not traced:
        return
    first = 1  # trace 0 is set-up; every later trace is one FleetServer.run
    totals = tracer.totals(first)
    arrivals = sum(p.n for p in traced)
    wall = sum(p.wall for p in traced)

    # -- serve: where the loop's wall time goes, per arrival ---------------------
    for metric, names in _STAGES.items():
        self_s = sum(totals[n]["self_s"] for n in names if n in totals)
        out.put(metric, self_s / arrivals * 1e6, arrivals)
    execute = totals["engine.execute"]
    out.put("serve.engine_execute_ms", execute["total_s"] / execute["count"] * 1e3, execute["count"])
    out.put("serve.engine_self_ms", execute["self_s"] / execute["count"] * 1e3, execute["count"])
    root_self = totals["fleet.run"]["self_s"]
    stage_self = sum(row["self_s"] for name, row in totals.items() if name != "fleet.run")
    out.put("serve.loop_self_frac", root_self / wall)
    out.put("serve.stage_sum_frac", stage_self / wall)
    reconcile(out, "serve.stage_sum_frac+serve.loop_self_frac over FleetServer.run",
              stage_self + root_self, wall)
    per_arrival = lambda passes: median(p.wall / p.n for p in passes)
    out.put("obs.trace_overhead_frac", per_arrival(traced) / per_arrival(plain) - 1.0, len(traced))

    # -- serve: what the fleet itself reports, tracing off -----------------------
    n = sum(p.n for p in plain)
    latency = [t for p in plain for t in p.latency]
    sizes = [b for p in plain for b in p.batch_size]
    service = [t for p in plain for t in p.service]
    out.put("serve.mean_batch_size", sum(sizes) / len(sizes), len(sizes))
    out.put("serve.padding_waste", median(p.padding_waste for p in plain), len(plain))
    out.put("serve.busy_frac", median(p.busy_frac for p in plain), len(plain))
    out.put("serve.queue_wait_p50_ms",
            percentile([t for p in plain for t in p.queue_wait], 50) * 1e3, len(latency))
    out.put("serve.service_p50_ms", percentile(service, 50) * 1e3, len(service))
    out.put("serve.latency_p99_ms", percentile(latency, 99) * 1e3, len(latency))
    out.put("serve.completed_frac", len(latency) / n, n)
    for reason in ("tenant", "deadline", "queue_full"):
        out.put(f"serve.shed_frac.{reason}", sum(p.sheds.get(reason, 0) for p in plain) / n, n)
    out.put("serve.late_completions", sum(p.late for p in plain), n)
    out.put("serve.accounting_gap", sum(p.gap for p in plain + traced))

    # -- compile: plans built at set-up and on first sight, replayed afterwards ---
    compiles = tracer.durations("compile_graph")
    out.put("compile.compile_ms", median(compiles) * 1e3 if compiles else 0.0, len(compiles))
    out.put("compile.plans_compiled",
            sum(e.plan_cache.stats()["compiles"] for e in server.pool.engines))
    known = [w for p in plain for w in p.warm if w is not None]
    out.put("compile.warm_hit_rate", sum(known) / len(known), len(known))
    out.put("compile.edges_reduced_frac",
            median(p.meta["redundant_edge_fraction"] for p in plans) if plans else 0.0, len(plans))

    # -- core / runtime / kernels under the engine --------------------------------
    builds = tracer.durations("build_brnn_graph")
    out.put("core.build_ms", median(builds) * 1e3 if builds else 0.0, len(builds))
    out.put("core.tasks_per_graph", median(p.meta["n_tasks"] for p in plans) if plans else 0.0)
    out.put("core.edges_per_graph",
            median(p.meta["n_edges_declared"] for p in plans) if plans else 0.0)
    peak = kernel_probes(out)
    if workload.functional:
        # every execute of a traced pass ran its graph once: pair that run with its trace
        runs = tracer.durations("executor.run", first, parent="engine.execute")
        task_stats = [trace_stats(e.trace) for e in executions[-execute["count"]:]]
        executor_metrics(out, runs, task_stats, server.pool.engines[0].n_workers)
        kernel_shares(out, task_stats, peak)
        replay_probe(workload, out, server.pool.params)
    else:
        # the engine is a cost model here: it only runs while a new shape compiles
        sim_runs = tracer.durations("executor.run")
        out.put("runtime.run_ms", median(sim_runs) * 1e3, len(sim_runs))
        out.put("simarch.sim_compile_s", sum(builds) + sum(compiles) + sum(sim_runs))
        out.put("simarch.shapes_compiled", len(compiles))


def replay_probe(workload, out, params) -> None:
    """One fixed batch through ``InferenceEngine.execute``: warm replay over dynamic."""
    rng = np.random.default_rng(0)
    requests = [
        InferenceRequest(rid=i, seq_len=40, arrival_time=0.0,
                         x=rng.standard_normal((40, workload.spec.input_size)).astype(np.float32))
        for i in range(4)
    ]
    batch = Batch(batch_id=0, requests=requests, padded_len=40, trigger="size", cut_time=0.0)
    medians = {}
    for mode in ("on", "off"):
        engine = InferenceEngine(
            workload.spec, config=workload.execution.replace(compile=mode), params=params
        )
        engine.execute(batch)  # compiles the plan (on) or warms the caches (off)
        medians[mode] = _timed(lambda: engine.execute(batch), 15)
    out.put("compile.replay_vs_dynamic", medians["on"] / medians["off"], 15)
    x = batch.padded_input()
    reference = _timed(lambda: reference_forward(workload.spec, params, x), 5)
    out.put("models.reference_step_ms", reference * 1e3, 5)
    out.put("models.speedup_vs_reference", reference / medians["on"])
