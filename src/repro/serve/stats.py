"""Serving metrics: latency SLO percentiles, throughput, batching efficacy.

:class:`FleetStats` is the single sink for everything the serving loop
observes — completions, sheds (with their reason taxonomy, see
:data:`repro.serve.request.SHED_REASONS`), cut batches, routing
decisions, per-replica queue-depth samples.  Latency percentiles reuse :func:`repro.runtime.trace.percentile`
(the same definition the runtime's task-duration summaries use), and
per-batch execution traces can be merged into one serving-wide
:class:`~repro.runtime.trace.ExecutionTrace` laid out on the server clock
for the existing analysis/visualisation tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.runtime.trace import ExecutionTrace, percentile
from repro.serve.batcher import Batch
from repro.serve.request import CompletedRequest, InferenceRequest

#: latency points reported by :meth:`FleetStats.summary`
LATENCY_PERCENTILES = (50, 95, 99)

#: request-latency histogram bounds (seconds) — serving latencies sit in the
#: millisecond-to-second range, wider than task durations
LATENCY_BUCKETS_S = (
    1e-3, 3e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)


@dataclass
class BatchRecord:
    """What the stats collector remembers about one executed batch."""

    size: int
    padded_len: int
    useful_frames: int
    trigger: str
    service_start: float
    service_time: float
    #: served from a warm compiled plan (None when the engine has no cache)
    warm: Optional[bool] = None
    #: which replica executed it
    replica: int = 0

    @property
    def shape(self) -> str:
        return f"{self.padded_len}x{self.size}"


class FleetStats:
    """Accumulates one serving run's observations and summarises them.

    ``keep_traces=True`` retains every batch's :class:`ExecutionTrace`
    (memory-heavy for long runs) so :meth:`combined_trace` can rebuild the
    full serving timeline.

    ``registry`` unifies serving stats with the runtime's observability
    layer: every recording call also updates the ``repro_serve_*`` and
    per-replica ``repro_fleet_*`` metrics on the given
    :class:`~repro.obs.registry.MetricsRegistry` (normally the engines',
    so scheduler/executor and serving counters share one /metrics
    surface), and :meth:`summary` embeds the registry dump.

    Everything is computed over the whole fleet (``n_replicas`` engines);
    batches and completions carry their replica id for the per-replica
    view.
    """

    def __init__(
        self,
        n_replicas: int = 1,
        keep_traces: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.n_replicas = n_replicas
        self.keep_traces = keep_traces
        self.registry = registry
        self.router_policy: Optional[str] = None
        self.routing_counts: Dict[int, int] = {}
        #: (time, replica, depth) samples taken by the serving loop
        self.replica_depth_samples: List[Tuple[float, int, int]] = []
        #: each replica's latest depth sample, and their sum (the fleet's)
        self._replica_depth: Dict[int, int] = {}
        self._fleet_depth = 0
        #: shapes compiled by fleet-start warmup
        self.warmup_compiled = 0
        self.completed: List[CompletedRequest] = []
        #: every shed request with its reason, in shed order
        self.shed_records: List[Tuple[InferenceRequest, str]] = []
        self.batches: List[BatchRecord] = []
        #: batches that carried warm/cold information, and the warm ones
        self._known_batches = 0
        self._warm_batches = 0
        self._batch_traces: List[Tuple[float, ExecutionTrace]] = []

    # -- recording -------------------------------------------------------------

    def record_batch(
        self, batch: Batch, service_start: float, service_time: float,
        trace: Optional[ExecutionTrace] = None,
        warm: Optional[bool] = None,
        replica: int = 0,
    ) -> None:
        self.batches.append(
            BatchRecord(
                size=batch.size,
                padded_len=batch.padded_len,
                useful_frames=batch.useful_frames,
                trigger=batch.trigger,
                service_start=service_start,
                service_time=service_time,
                warm=warm,
                replica=replica,
            )
        )
        if warm is not None:
            self._known_batches += 1
            self._warm_batches += int(warm)
        if self.keep_traces and trace is not None:
            self._batch_traces.append((service_start, trace))
        reg = self.registry
        if reg is not None:
            reg.counter(
                "repro_serve_batches_total", help="executed batches",
                trigger=batch.trigger,
            ).inc()
            reg.histogram(
                "repro_serve_batch_size",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
                help="requests per executed batch",
            ).observe(batch.size)
            reg.counter(
                "repro_serve_service_seconds_total", help="engine busy time"
            ).inc(service_time)
            reg.counter(
                "repro_fleet_replica_busy_seconds_total",
                help="per-replica engine busy time",
                replica=str(replica),
            ).inc(service_time)
            rate = self.warm_hit_rate()
            if rate is not None:
                reg.gauge(
                    "repro_fleet_warm_hit_rate",
                    help="fraction of batches served from warm compiled plans",
                ).set(rate)

    def record_routing(self, replica: int, policy: str) -> None:
        self.router_policy = policy
        self.routing_counts[replica] = self.routing_counts.get(replica, 0) + 1
        if self.registry is not None:
            self.registry.counter(
                "repro_fleet_routing_total", help="routing decisions",
                replica=str(replica), policy=policy,
            ).inc()

    def record_completion(self, rec: CompletedRequest) -> None:
        self.completed.append(rec)
        reg = self.registry
        if reg is not None:
            reg.counter(
                "repro_serve_requests_total", help="finished requests",
                status="completed",
            ).inc()
            reg.histogram(
                "repro_serve_latency_seconds",
                buckets=LATENCY_BUCKETS_S,
                help="arrival-to-completion latency",
            ).observe(rec.latency)

    def record_shed(self, req: InferenceRequest, reason: str) -> None:
        self.shed_records.append((req, reason))
        if self.registry is not None:
            self.registry.counter(
                "repro_serve_requests_total", help="finished requests",
                status="shed",
            ).inc()
            self.registry.counter(
                "repro_serve_shed_total", help="shed requests by reason",
                reason=reason,
            ).inc()
            self.registry.counter(
                "repro_fleet_shed_total", help="fleet sheds by reason",
                reason=reason,
            ).inc()

    def record_replica_depth(self, replica: int, now: float, depth: int) -> None:
        self.replica_depth_samples.append((now, replica, depth))
        self._fleet_depth += depth - self._replica_depth.get(replica, 0)
        self._replica_depth[replica] = depth
        if self.registry is not None:
            self.registry.gauge(
                "repro_serve_queue_depth", help="pending requests, fleet total"
            ).set(self._fleet_depth)
            self.registry.gauge(
                "repro_fleet_replica_queue_depth",
                help="pending requests on one replica",
                replica=str(replica),
            ).set(depth)

    # -- derived metrics -------------------------------------------------------

    @property
    def shed(self) -> List[InferenceRequest]:
        """Every shed request, whatever the reason."""
        return [r for r, _ in self.shed_records]

    def shed_reason_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, why in self.shed_records:
            counts[why] = counts.get(why, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def num_requests(self) -> int:
        return len(self.completed) + len(self.shed_records)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed]

    def latency_percentiles(self) -> Dict[str, float]:
        xs = self.latencies()
        if not xs:
            return {f"p{p}": 0.0 for p in LATENCY_PERCENTILES}
        return {f"p{p}": percentile(xs, p) for p in LATENCY_PERCENTILES}

    def elapsed(self) -> float:
        """First arrival to last completion — the serving run's span."""
        if not self.completed:
            return 0.0
        t0 = min(r.arrival_time for r in self.completed)
        t1 = max(r.finish_time for r in self.completed)
        return t1 - t0

    def throughput_rps(self) -> float:
        span = self.elapsed()
        return len(self.completed) / span if span > 0 else 0.0

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.size for b in self.batches) / len(self.batches)

    def batch_size_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for b in self.batches:
            hist[b.size] = hist.get(b.size, 0) + 1
        return dict(sorted(hist.items()))

    def padding_overhead(self) -> float:
        """Fraction of computed frames that were padding (0 = no waste)."""
        padded = sum(b.size * b.padded_len for b in self.batches)
        useful = sum(b.useful_frames for b in self.batches)
        return 1.0 - useful / padded if padded else 0.0

    def trigger_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for b in self.batches:
            counts[b.trigger] = counts.get(b.trigger, 0) + 1
        return counts

    def warm_hit_rate(self) -> Optional[float]:
        """Fraction of batches served from a warm compiled plan.

        ``None`` when the engine ran without a plan cache (no batch
        carried warm/cold information).
        """
        if not self._known_batches:
            return None
        return self._warm_batches / self._known_batches

    def warm_by_shape(self) -> Dict[str, Dict[str, int]]:
        """Per-shape ``{"batches": n, "warm": k}`` plan-cache breakdown."""
        shapes: Dict[str, Dict[str, int]] = {}
        for b in self.batches:
            if b.warm is None:
                continue
            row = shapes.setdefault(b.shape, {"batches": 0, "warm": 0})
            row["batches"] += 1
            row["warm"] += int(b.warm)
        return dict(sorted(shapes.items()))

    def slo_summary(self) -> Optional[Dict[str, float]]:
        """Deadline attainment over every terminal request.

        ``attainment`` counts a request as attained only when it completed
        within its deadline (no-deadline completions are vacuous passes;
        sheds always miss); ``completed_attainment`` restricts the
        denominator to completed requests — the shed-not-timeout metric.
        ``None`` when no request carried a deadline.
        """
        deadlined = sum(1 for r in self.completed if r.deadline is not None)
        deadlined += sum(
            1 for r, _ in self.shed_records if r.deadline is not None
        )
        if deadlined == 0:
            return None
        late = sum(1 for r in self.completed if not r.met_deadline)
        attained = len(self.completed) - late
        total = self.num_requests
        return {
            "attainment": attained / total if total else 0.0,
            "completed_attainment": (
                attained / len(self.completed) if self.completed else 0.0
            ),
            "late_completions": late,
            "deadlined_requests": deadlined,
        }

    def engine_busy_fraction(self) -> float:
        """Fraction of the serving span the engine spent executing batches."""
        span = self.elapsed()
        busy = sum(b.service_time for b in self.batches)
        return busy / span if span > 0 else 0.0

    def queue_depth_stats(self) -> Dict[str, float]:
        depths = [d for _, _, d in self.replica_depth_samples]
        if not depths:
            return {"mean": 0.0, "max": 0.0}
        return {"mean": sum(depths) / len(depths), "max": float(max(depths))}

    def per_replica_summary(self) -> List[Dict[str, float]]:
        rows = []
        for r in range(self.n_replicas):
            batches = [b for b in self.batches if b.replica == r]
            completed = sum(1 for c in self.completed if c.replica == r)
            rows.append(
                {
                    "routed": self.routing_counts.get(r, 0),
                    "completed": completed,
                    "batches": len(batches),
                    "busy_s": sum(b.service_time for b in batches),
                    "mean_batch_size": (
                        sum(b.size for b in batches) / len(batches)
                        if batches else 0.0
                    ),
                }
            )
        return rows

    def combined_trace(self) -> ExecutionTrace:
        """All batch traces merged onto the server clock (needs keep_traces).

        Core width is the max ``n_cores`` over the batch traces, re-based
        against the widest core id actually recorded — an engine that mixes
        substrates (e.g. a 48-core simulated warm-up next to an 8-worker
        threaded run) must not produce records outside the declared width.
        """
        if not self.keep_traces:
            raise RuntimeError("construct FleetStats(keep_traces=True) first")
        return ExecutionTrace.merge_all(
            [trace for _, trace in self._batch_traces],
            time_offsets=[start for start, _ in self._batch_traces],
        )

    def summary(self) -> Dict:
        """The JSON-ready report: SLO latencies, throughput, batching stats."""
        xs = self.latencies()
        warm_rate = self.warm_hit_rate()
        slo = self.slo_summary()
        return {
            "requests": {
                "total": self.num_requests,
                "completed": len(self.completed),
                "shed": len(self.shed_records),
                "shed_reasons": self.shed_reason_counts(),
            },
            "throughput_rps": self.throughput_rps(),
            "elapsed_s": self.elapsed(),
            "latency_s": {
                **self.latency_percentiles(),
                "mean": sum(xs) / len(xs) if xs else 0.0,
                "max": max(xs) if xs else 0.0,
            },
            "batches": {
                "count": len(self.batches),
                "mean_size": self.mean_batch_size(),
                "size_histogram": {str(k): v for k, v in self.batch_size_histogram().items()},
                "padding_overhead": self.padding_overhead(),
                "triggers": self.trigger_counts(),
                **(
                    {"warm_hit_rate": warm_rate, "warm_by_shape": self.warm_by_shape()}
                    if warm_rate is not None
                    else {}
                ),
            },
            "queue_depth": self.queue_depth_stats(),
            "engine_busy_fraction": self.engine_busy_fraction(),
            **({"slo": slo} if slo is not None else {}),
            **(
                {"metrics": self.registry.as_dict()}
                if self.registry is not None
                else {}
            ),
            "fleet": {
                "replicas": self.n_replicas,
                "router": self.router_policy,
                "routing": {str(k): v for k, v in sorted(self.routing_counts.items())},
                "warmup_compiled": self.warmup_compiled,
                "per_replica": self.per_replica_summary(),
            },
        }
