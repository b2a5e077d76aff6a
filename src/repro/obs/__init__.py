"""``repro.obs`` — runtime observability (docs/OBSERVABILITY.md).

The cross-cutting telemetry layer the paper's scheduler claims are
measured with:

* :class:`MetricsRegistry` — thread-safe counters/gauges/histograms, read
  through one flat ``{"name{label=...}": value}`` surface
  (:mod:`repro.obs.registry`);
* :mod:`repro.obs.publish` — executors fold per-run traces and
  :class:`~repro.runtime.scheduler.SchedulerCounters` (queue depth,
  steals + distance, locality hit/miss, starvation stalls) into a
  registry, off the hot path;
* :mod:`repro.obs.report` — the ``python -m repro bench obs_overhead`` driver,
  the metrics-overhead A/B behind ``BENCH_obs_overhead.json``.  (Imported
  on demand, not here: it pulls in the engines.)

A run is observed through what it leaves behind: its
:class:`~repro.runtime.trace.ExecutionTrace` (one record per task) and
the registry attached through :class:`repro.config.ExecutionConfig`'s
``metrics=`` field, whose ``flat()`` is safe to read from another thread
while a run publishes.  This package itself imports nothing from the
runtime, so any layer can depend on it.
"""

from repro.obs.registry import (
    DURATION_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.publish import publish_run, publish_scheduler, publish_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BUCKETS_S",
    "publish_run",
    "publish_scheduler",
    "publish_trace",
]
