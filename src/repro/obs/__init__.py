"""``repro.obs`` — runtime observability (docs/OBSERVABILITY.md).

The cross-cutting telemetry layer the paper's scheduler claims are
measured with:

* :class:`MetricsRegistry` — thread-safe counters/gauges/histograms with
  Prometheus-text and JSON exporters (:mod:`repro.obs.registry`);
* :mod:`repro.obs.publish` — executors fold per-run traces and
  :class:`~repro.runtime.scheduler.SchedulerCounters` (queue depth,
  steals + distance, locality hit/miss, starvation stalls) into a
  registry, off the hot path;
* :class:`ProfilingHooks` / :class:`CallbackHooks` — live
  ``on_task_start/end``, ``on_steal``, ``on_batch_flush`` callbacks
  (:mod:`repro.obs.hooks`);
* :class:`Snapshot` / :class:`SnapshotLog` — periodic registry sampling,
  embeddable as Chrome-trace counter events
  (:mod:`repro.obs.snapshot`);
* :mod:`repro.obs.report` — the ``python -m repro bench obs_overhead`` driver,
  the metrics-overhead A/B behind ``BENCH_obs_overhead.json``.  (Imported
  on demand, not here: it pulls in the engines.)

Everything is enabled through the unified
:class:`repro.config.ExecutionConfig` (``metrics=``/``hooks=`` fields);
this package itself imports nothing from the runtime, so any layer can
depend on it.
"""

from repro.obs.registry import (
    DURATION_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.hooks import CallbackHooks, ProfilingHooks
from repro.obs.snapshot import Snapshot, SnapshotLog
from repro.obs.publish import publish_run, publish_scheduler, publish_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BUCKETS_S",
    "ProfilingHooks",
    "CallbackHooks",
    "Snapshot",
    "SnapshotLog",
    "publish_run",
    "publish_scheduler",
    "publish_trace",
]
