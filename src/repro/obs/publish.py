"""Publish runtime observations into a :class:`MetricsRegistry`.

Executors call these once per :meth:`run` *after* the graph finishes, so
the hot path (worker loops, scheduler push/pop) never touches the
registry — enabling metrics costs one O(n_tasks) pass over the trace that
the ≤2 % overhead budget (``BENCH_obs_overhead.json``) holds against the
whole threaded bench.

Metric families (all prefixed ``repro_``):

====================================  =========  =================================
``repro_exec_runs_total``             counter    graph executions
``repro_exec_cores``                  gauge      cores (threads) the last run ran on
``repro_exec_tasks_total``            counter    per task ``kind``
``repro_exec_task_seconds``           histogram  task durations, per ``kind``
``repro_exec_core_busy_seconds``      counter    per ``core``
``repro_exec_core_idle_seconds``      counter    per ``core`` (makespan − busy)
``repro_exec_makespan_seconds``       gauge      last run's makespan
``repro_exec_parallel_efficiency``    gauge      last run's busy fraction
``repro_exec_mp_tasks_total``         counter    per ``worker`` process
``repro_exec_mp_busy_seconds``        counter    payload time, per ``worker``
``repro_sched_pushes_total``          counter    per ``policy``
``repro_sched_pops_total``            counter    per ``policy``
``repro_sched_steals_total``          counter    per ``policy``
``repro_sched_steal_distance_total``  counter    Σ |thief − victim| core ids
``repro_sched_locality_hits_total``   counter    hinted pops on the hinted core
``repro_sched_locality_misses_total`` counter    hinted pops elsewhere
``repro_sched_locality_hit_rate``     gauge      last run's hit rate
``repro_sched_starvation_stalls_total`` counter  empty-queue pops
``repro_sched_queue_depth_mean``      gauge      last run's mean ready depth
``repro_sched_queue_depth_max``       gauge      last run's peak ready depth
``repro_compile_cache_hits_total``    counter    plan-cache lookups that hit
``repro_compile_cache_misses_total``  counter    plan-cache lookups that missed
``repro_compile_cache_evictions_total`` counter  LRU evictions
``repro_compile_plans_compiled_total`` counter   shapes cached (a plan on sim)
``repro_compile_cache_size``          gauge      live cached shapes
``repro_compile_hit_rate``            gauge      lifetime hit rate
``repro_serve_requests_total``        counter    per terminal ``status``
``repro_serve_shed_total``            counter    sheds, per ``reason``
``repro_serve_latency_seconds``       histogram  request latency
``repro_serve_batches_total``         counter    per flush ``trigger``
``repro_serve_batch_size``            histogram  requests per batch
``repro_serve_service_seconds_total`` counter    engine busy time
``repro_serve_queue_depth``           gauge      pending requests, fleet total
``repro_fleet_routing_total``         counter    per ``replica`` and ``policy``
``repro_fleet_shed_total``            counter    fleet sheds, per ``reason``
``repro_fleet_replica_queue_depth``   gauge      per ``replica`` backlog
``repro_fleet_replica_busy_seconds_total`` counter per ``replica`` busy time
``repro_fleet_warm_hit_rate``         gauge      warm compiled-plan batch rate
====================================  =========  =================================

(The cache's ``last_compile_s`` wall time stays out of the registry on
purpose: simulated serving reports are bit-reproducible, and a wall-clock
gauge in the metrics block would break that.  See ``PlanCache.stats()``.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import DURATION_BUCKETS_S, MetricsRegistry

if TYPE_CHECKING:  # typing only — keeps repro.obs import-free of the runtime
    from repro.runtime.scheduler import SchedulerCounters
    from repro.runtime.trace import ExecutionTrace


def publish_trace(registry: MetricsRegistry, trace: "ExecutionTrace") -> None:
    """Fold one execution trace into the registry's ``repro_exec_*`` family."""
    registry.counter("repro_exec_runs_total", help="graph executions").inc()
    registry.gauge(
        "repro_exec_cores", help="cores (threads) the last run ran on"
    ).set(trace.n_cores)
    by_kind: dict = {}
    for r in trace.records:
        durs = by_kind.get(r.kind)
        if durs is None:
            durs = by_kind[r.kind] = []
        durs.append(r.duration)
    for kind, durs in sorted(by_kind.items()):
        registry.counter(
            "repro_exec_tasks_total", help="tasks executed", kind=kind
        ).inc(len(durs))
        hist = registry.histogram(
            "repro_exec_task_seconds",
            DURATION_BUCKETS_S,
            help="task durations",
            kind=kind,
        )
        for d in durs:
            hist.observe(d)
    span = trace.makespan
    busy = trace.core_busy_time()
    for core in range(trace.n_cores):
        b = busy.get(core, 0.0)
        registry.counter(
            "repro_exec_core_busy_seconds", help="per-core busy time", core=str(core)
        ).inc(b)
        registry.counter(
            "repro_exec_core_idle_seconds", help="per-core idle time", core=str(core)
        ).inc(max(0.0, span - b))
    registry.gauge(
        "repro_exec_makespan_seconds", help="last run makespan"
    ).set(span)
    registry.gauge(
        "repro_exec_parallel_efficiency", help="last run busy fraction"
    ).set(trace.parallel_efficiency())


def publish_scheduler(
    registry: MetricsRegistry,
    counters: "SchedulerCounters",
    policy: str = "?",
) -> None:
    """Fold one run's scheduler counters into ``repro_sched_*``.

    Counters accumulate across runs (each run uses a fresh scheduler, so
    the per-run values are deltas); rates/depths are last-run gauges.
    """
    labels = {"policy": policy}
    for name, value, help_ in (
        ("repro_sched_pushes_total", counters.pushes, "ready-queue pushes"),
        ("repro_sched_pops_total", counters.pops, "ready-queue pops"),
        ("repro_sched_steals_total", counters.steals, "cross-core steals"),
        (
            "repro_sched_steal_distance_total",
            counters.steal_distance_total,
            "summed |thief-victim| core distance",
        ),
        (
            "repro_sched_locality_hits_total",
            counters.locality_hits,
            "hinted tasks popped on their hinted core",
        ),
        (
            "repro_sched_locality_misses_total",
            counters.locality_misses,
            "hinted tasks popped elsewhere",
        ),
        (
            "repro_sched_starvation_stalls_total",
            counters.starvation_stalls,
            "pops that found no ready task",
        ),
    ):
        registry.counter(name, help=help_, **labels).inc(value)
    registry.gauge(
        "repro_sched_locality_hit_rate", help="last run locality hit rate", **labels
    ).set(counters.locality_hit_rate)
    registry.gauge(
        "repro_sched_queue_depth_mean", help="last run mean ready depth", **labels
    ).set(counters.mean_queue_depth)
    registry.gauge(
        "repro_sched_queue_depth_max", help="last run peak ready depth", **labels
    ).set(counters.depth_max)


def publish_plan_cache(registry: MetricsRegistry, stats: dict) -> None:
    """Fold plan-cache snapshot ``stats`` into ``repro_compile_*``.

    The cache outlives individual runs, so its ``stats()`` are lifetime
    *totals*, not per-run deltas; counters are raised to the snapshot by
    delta-incrementing (idempotent when called repeatedly with the same
    snapshot), rates and sizes are plain gauges.

    ``stats()["last_compile_s"]`` is deliberately NOT published: it is
    wall-clock, and folding it into the registry would make otherwise
    bit-reproducible simulated serving reports differ between identical
    runs.  Read it from ``PlanCache.stats()`` or the ``compile`` bench JSON,
    where measurement jitter is expected.
    """
    for name, key, help_ in (
        ("repro_compile_cache_hits_total", "hits", "plan-cache hits"),
        ("repro_compile_cache_misses_total", "misses", "plan-cache misses"),
        ("repro_compile_cache_evictions_total", "evictions", "plan-cache LRU evictions"),
        ("repro_compile_plans_compiled_total", "compiles", "shapes cached (a plan on sim)"),
    ):
        counter = registry.counter(name, help=help_)
        counter.inc(max(0.0, stats[key] - counter.value))
    registry.gauge("repro_compile_cache_size", help="live cached shapes").set(
        stats["size"]
    )
    registry.gauge("repro_compile_hit_rate", help="lifetime plan-cache hit rate").set(
        stats["hit_rate"]
    )


def publish_mp_workers(
    registry: Optional[MetricsRegistry], worker_stats: dict
) -> None:
    """Fold per-worker counters of one multiprocess run into
    ``repro_exec_mp_*``.

    ``worker_stats`` maps worker id → the counter dict each worker sends
    in its ``bye`` message (tasks and payload seconds).  These are *worker-side* observations — measured inside the
    worker processes and aggregated here after the run, so the manager's
    dispatch loop stays registry-free.  No-op when ``registry`` is
    ``None`` or a run ended before stats collection (crash paths).
    """
    if registry is None or not worker_stats:
        return
    for wid, stats in sorted(worker_stats.items()):
        labels = {"worker": str(wid)}
        for name, key, help_ in (
            ("repro_exec_mp_tasks_total", "tasks", "tasks executed per worker process"),
            ("repro_exec_mp_busy_seconds", "exec_seconds", "payload execution time"),
        ):
            registry.counter(name, help=help_, **labels).inc(stats.get(key, 0))


def publish_run(
    registry: Optional[MetricsRegistry],
    trace: "ExecutionTrace",
    counters: Optional["SchedulerCounters"] = None,
    policy: Optional[str] = None,
) -> None:
    """One-call executor epilogue; no-op when ``registry`` is ``None``."""
    if registry is None:
        return
    publish_trace(registry, trace)
    if counters is not None:
        publish_scheduler(registry, counters, policy or trace.scheduler or "?")
