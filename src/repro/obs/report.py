"""The ``obs_overhead`` suite's driver (``python -m repro bench obs_overhead``).

:func:`measure_overhead` — interleaved A/B wall-time measurement of the
threaded engine with metrics disabled vs enabled, demonstrating that
attaching a :class:`~repro.obs.registry.MetricsRegistry` stays within the
≤2 % budget (publication is one post-run pass over the trace, so the hot
path is untouched).  The budget itself is a row of
:mod:`repro.harness.ledger`, not of this module.

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
engines, while the rest of ``repro.obs`` stays runtime-free.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.config import ExecutionConfig
from repro.harness.measure import (
    interleaved_step_times,
    make_spec,
    summarize_times,
)
from repro.obs.registry import MetricsRegistry


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
    samples = interleaved_step_times(
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


def run_obs_report(**size) -> Dict:
    """The overhead A/B at one ledger size, as ``{"config", "results"}``."""
    overhead = measure_overhead(**size)
    return {"config": overhead["config"], "results": {"overhead": overhead}}
