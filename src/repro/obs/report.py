"""The ``obs_overhead`` suite's driver (``python -m repro bench obs_overhead``).

Two halves, one report:

* :func:`compare_policies` — run the *same* cost graph on the simulated
  machine under two scheduler policies (default locality-aware vs FIFO)
  and report each run's :class:`~repro.runtime.scheduler.SchedulerCounters`
  side by side: locality hit rate, steals, queue depth, per-core busy
  fraction, makespan.  This is the paper's Fig. 7 contrast restated as
  counters — the locality policy should show a high hit rate and a
  shorter makespan on the identical graph.
* :func:`measure_overhead` — interleaved A/B wall-time measurement of the
  threaded engine with metrics disabled vs enabled, demonstrating that
  attaching a :class:`~repro.obs.registry.MetricsRegistry` stays within
  the ≤2 % budget (publication is one post-run pass over the trace, so
  the hot path is untouched).  The budget itself is a row of
  :mod:`repro.harness.ledger`, not of this module.

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
engines, while the rest of ``repro.obs`` stays runtime-free.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional

from repro.config import ExecutionConfig
from repro.core.graph_builder import build_brnn_graph
from repro.harness.measure import (
    interleaved_step_times,
    make_spec,
    summarize_times,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s


def compare_policies(
    policy: str = "locality",
    compare: str = "fifo",
    *,
    cell: str = "lstm",
    input_size: int = 64,
    hidden: int = 64,
    layers: int = 2,
    seq_len: int = 50,
    batch: int = 32,
    mbs: int = 4,
    n_cores: Optional[int] = None,
    training: bool = False,
) -> Dict:
    """Scheduler-policy counter comparison on one shared cost graph.

    Each policy gets a fresh :class:`SimulatedExecutor` (own cache state)
    and a warm-up run, so the measured run models steady-state serving of
    the same batch; both see the identical task graph.
    """
    graph = build_brnn_graph(
        make_spec(cell, input_size, hidden, layers),
        seq_len=seq_len, batch=batch, mbs=mbs, training=training,
    ).graph
    machine = xeon_8160_2s()
    policies: Dict[str, Dict] = {}
    for name in dict.fromkeys((policy, compare)):  # dedup, order-preserving
        registry = MetricsRegistry()
        sim = SimulatedExecutor(
            machine, n_cores=n_cores, scheduler=name, metrics=registry
        )
        sim.run(graph)  # warm: weights NUMA-homed / cache-resident
        trace = sim.run(graph)
        busy = trace.core_busy_time()
        span = trace.makespan
        fractions = [busy.get(c, 0.0) / span if span > 0 else 0.0
                     for c in range(trace.n_cores)]
        policies[name] = {
            "makespan_s": span,
            "parallel_efficiency": trace.parallel_efficiency(),
            "core_busy_fraction_mean": sum(fractions) / len(fractions),
            "core_busy_fraction_max": max(fractions),
            "counters": trace.scheduler_counters.as_dict(),
            "metrics": registry.as_dict(),
        }
    base = policies[compare]["makespan_s"]
    return {
        "graph": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "mbs": mbs, "training": training, "n_tasks": len(graph),
            "n_cores": n_cores if n_cores is not None else machine.n_cores,
        },
        "policies": policies,
        "speedup_vs_compare": (
            base / policies[policy]["makespan_s"]
            if policies[policy]["makespan_s"] > 0 else 0.0
        ),
    }


def measure_overhead(
    *,
    cell: str = "lstm",
    input_size: int = 128,
    hidden: int = 64,
    layers: int = 2,
    seq_len: int = 50,
    batch: int = 16,
    mbs: int = 2,
    n_workers: int = 2,
    iters: int = 9,
    warmup: int = 2,
    seed: int = 0,
) -> Dict:
    """Threaded-inference wall time, metrics disabled vs enabled.

    The reported ``overhead_ratio`` is the *median of per-round paired
    ratios* — each round's enabled/disabled pair ran back to back
    (:func:`repro.harness.measure.interleaved_step_times`), so thermal
    and tenancy drift cancel within the pair instead of inflating the
    ratio of two pooled medians.
    """
    registry = MetricsRegistry()
    base = dict(executor="threaded", n_workers=n_workers, mbs=mbs)
    samples, _ = interleaved_step_times(
        make_spec(cell, input_size, hidden, layers), seq_len, batch,
        {
            "disabled": ExecutionConfig(**base),
            "enabled": ExecutionConfig(**base, metrics=registry),
        },
        iters=iters, warmup=warmup, seed=seed,
    )
    disabled = summarize_times(samples["disabled"])
    enabled = summarize_times(samples["enabled"])
    ratio = statistics.median(
        e / d for d, e in zip(samples["disabled"], samples["enabled"])
    )
    return {
        "disabled": disabled,
        "enabled": enabled,
        "overhead_ratio": ratio,
        "median_ratio": enabled["median_s"] / disabled["median_s"],
        "metric_names": len(registry.names()),
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "mbs": mbs, "n_workers": n_workers,
            "iters": iters, "warmup": warmup, "seed": seed,
        },
    }


def run_obs_report(
    policy: str = "locality",
    compare: str = "fifo",
    *,
    n_cores: Optional[int] = None,
    mbs: int = 4,
    seq_len: int = 50,
    batch: int = 32,
    iters: int = 9,
    warmup: int = 2,
    seed: int = 0,
    overhead: bool = True,
) -> Dict:
    """The full obs report — policy comparison + (optionally) overhead
    A/B — as ``{"config", "results"}``."""
    comparison = compare_policies(
        policy, compare, n_cores=n_cores, mbs=mbs, seq_len=seq_len, batch=batch
    )
    results: Dict = {"comparison": comparison}
    if overhead:
        results["overhead"] = measure_overhead(
            seq_len=seq_len, mbs=max(1, mbs // 2),
            iters=iters, warmup=warmup, seed=seed,
        )
    return {
        "config": {
            "policy": policy, "compare": compare,
            "n_cores": n_cores, "mbs": mbs, "seq_len": seq_len,
            "batch": batch, "iters": iters, "warmup": warmup,
            "seed": seed, "overhead": overhead,
        },
        "results": results,
    }
