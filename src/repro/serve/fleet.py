"""Fleet-scale serving: a replica pool behind a router and admission control.

This is the manager/worker-group split of the distributed-manager runtime
(PAPERS.md, arXiv:2009.03066) applied to serving: one fleet-level manager
admits and routes requests; each of N :class:`~repro.serve.engine.
InferenceEngine` replicas is an independent scheduler domain with its own
bounded queue and dynamic batcher.  Everything is configured by one
:class:`~repro.serve.config.ServeConfig`:

* :class:`ReplicaPool` — N engines sharing one spec/weights (functional
  replicas must answer identically) plus per-shape cache warm-up.
* a pluggable router (:mod:`repro.serve.router`): least-loaded, or
  consistent-hash-by-shape so each shape's cache entry stays warm on
  its home replica.
* an :class:`~repro.serve.admission.AdmissionController`: per-tenant
  token buckets and SLO deadline budgets — excess and doomed load is shed
  at arrival (cheap) instead of queued and served late (expensive and
  useless).
* :class:`FleetServer` — the one event-driven serving loop, across all
  replicas, deterministic on the simulated substrate; a single engine is
  the one-replica fleet.

Every run reports through one :class:`~repro.serve.stats.FleetStats`
(docs/SERVING.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.compile.warmup import plan_warmup_shapes
from repro.config import ExecutionConfig
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.obs.snapshot import SnapshotLog
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine
from repro.serve.request import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    CompletedRequest,
    InferenceRequest,
)
from repro.serve.router import ConsistentHashRouter
from repro.serve.stats import FleetStats
from repro.simarch.machine import MachineSpec

#: EWMA weight for the per-replica service-time estimate the admission
#: deadline budget consumes (newest observation's share)
SERVICE_EWMA_ALPHA = 0.3


class ReplicaPool:
    """N identically-configured engine replicas of one model.

    Functional substrates (threaded/process) share one parameter set
    (``params``, else initialised from seed 0) — every replica must
    produce bitwise-identical answers, or routing would change results.
    Each engine owns its plan cache.
    """

    def __init__(
        self,
        spec: BRNNSpec,
        config: Optional[ServeConfig] = None,
        *,
        execution: Optional[ExecutionConfig] = None,
        params: Optional[BRNNParams] = None,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else ServeConfig()
        self.execution = execution
        functional = execution is not None and execution.executor in (
            "threaded", "process"
        )
        if params is None and functional:
            params = BRNNParams.initialize(spec, 0)
        self.params = params
        self.engines = [
            InferenceEngine(spec, config=execution, params=params, machine=machine)
            for _ in range(self.config.replicas)
        ]

    def __len__(self) -> int:
        return len(self.engines)

    @property
    def registry(self):
        return self.engines[0].metrics

    def warmup(self, shapes: Sequence[Tuple[int, int]], router=None) -> int:
        """Warm ``shapes`` across the pool; returns the shapes cached.

        With a :class:`~repro.serve.router.ConsistentHashRouter` each
        shape warms only on its home replica (that is the only replica
        that will ever see it); any other router warms every replica.
        No-op (0) when the engines run without a plan cache.
        """
        if self.engines[0].plan_cache is None:
            return 0
        compiled = 0
        if isinstance(router, ConsistentHashRouter):
            for padded_len, size in shapes:
                home = router.route_key(f"shape:{padded_len}")
                compiled += self.engines[home].warmup([(padded_len, size)])
            return compiled
        for engine in self.engines:
            compiled += engine.warmup(shapes)
        return compiled


class FleetServer:
    """Admission → routing → per-replica batching/execution for one fleet.

    One deterministic event-driven clock over per-replica queues,
    batchers and engine-busy horizons: events are request arrivals,
    engine completions, batcher timeouts and deadline expiries, processed
    in time order.  On the simulated executor the whole run is
    bit-reproducible; on a real executor service times are measured wall
    time, replayed onto the same clock.  ``FleetServer(pool)`` serves an
    open-loop workload under ``pool.config`` via :meth:`run`;
    :meth:`build` constructs the pool too.  Before the first arrival
    every replica caches the full-batch shape of each length bucket the
    workload reaches (a no-op without ``ExecutionConfig(compile="on")``).

    When the engines carry a metrics registry
    (:class:`~repro.config.ExecutionConfig` ``metrics=``) the loop shares
    it: the stats publish ``repro_serve_*``/``repro_fleet_*`` alongside
    the executor's families, and :attr:`snapshots` (a
    :class:`~repro.obs.snapshot.SnapshotLog`) samples the registry after
    every executed batch, stamped with the batch's finish time (a batch
    that finishes before the latest sample is skipped, so the series
    never runs backwards across replicas).
    """

    def __init__(self, pool: ReplicaPool, keep_traces: bool = False) -> None:
        self.pool = pool
        self.config = pool.config
        self.keep_traces = keep_traces
        registry = pool.registry
        self.snapshots: Optional[SnapshotLog] = (
            SnapshotLog(registry) if registry is not None else None
        )

    @classmethod
    def build(
        cls,
        spec: BRNNSpec,
        config: Optional[ServeConfig] = None,
        *,
        execution: Optional[ExecutionConfig] = None,
        params: Optional[BRNNParams] = None,
        machine: Optional[MachineSpec] = None,
        keep_traces: bool = False,
    ) -> "FleetServer":
        pool = ReplicaPool(
            spec, config, execution=execution, params=params, machine=machine
        )
        return cls(pool, keep_traces=keep_traces)

    def _slice_result(self, logits, idx: int):
        """This request's rows of the batch logits (None for cost-only runs)."""
        if logits is None:
            return None
        if self.pool.spec.head == "many_to_one":
            return logits[idx]
        return logits[:, idx]

    def run(self, requests: Sequence[InferenceRequest]) -> FleetStats:
        """Serve ``requests`` to completion across the fleet."""
        cfg = self.config
        engines = self.pool.engines
        n_replicas = len(engines)
        pending: List[InferenceRequest] = sorted(
            requests, key=lambda r: (r.arrival_time, r.rid)
        )
        queues = [cfg.make_queue() for _ in range(n_replicas)]
        batchers = [cfg.make_batcher() for _ in range(n_replicas)]
        router = cfg.make_router()
        admission = cfg.make_admission()
        stats = FleetStats(
            n_replicas,
            keep_traces=self.keep_traces,
            registry=self.pool.registry,
        )

        shapes = plan_warmup_shapes(
            (r.seq_len for r in pending),
            bucket_width=cfg.bucket_width,
            max_batch_size=cfg.max_batch_size,
        )
        stats.warmup_compiled = self.pool.warmup(shapes, router=router)

        #: EWMA of observed batch service time per replica (None until the
        #: first batch — admission never sheds on an estimate it lacks)
        service_est: List[Optional[float]] = [None] * n_replicas
        engine_free = [0.0] * n_replicas
        i, n = 0, len(pending)
        now = 0.0

        def predicted_wait(r: int) -> Optional[float]:
            est = service_est[r]
            if est is None:
                return None
            backlog = -(-len(queues[r]) // cfg.max_batch_size)  # ceil division
            return max(0.0, engine_free[r] - now) + backlog * est

        while True:
            # 1. shed queued requests that are expired — or *doomed*: even
            # dispatched this instant they would finish past their deadline
            for r in range(n_replicas):
                horizon = service_est[r] or 0.0
                for victim in queues[r].expire(now, horizon=horizon):
                    stats.record_shed(victim, SHED_DEADLINE)

            # 2. admit → route → budget-check every arrival up to the clock
            while i < n and pending[i].arrival_time <= now:
                req = pending[i]
                i += 1
                if cfg.deadline_slo_s is not None and req.deadline is None:
                    req.deadline = req.arrival_time + cfg.deadline_slo_s
                if req.expired(now):
                    stats.record_shed(req, SHED_DEADLINE)
                    continue
                loads = [
                    (len(queues[r]), max(0.0, engine_free[r] - now))
                    for r in range(n_replicas)
                ]
                r = router.route(req, loads)
                verdict = admission.admit(
                    req, now,
                    predicted_wait_s=predicted_wait(r),
                    service_estimate_s=service_est[r],
                )
                if verdict is not None:
                    stats.record_shed(req, verdict)
                    continue
                stats.record_routing(r, router.policy)
                if not queues[r].push(req):
                    stats.record_shed(req, SHED_QUEUE_FULL)
                stats.record_replica_depth(r, req.arrival_time, len(queues[r]))

            # 3. every idle replica cuts a batch at this instant
            progressed = False
            for r in range(n_replicas):
                if engine_free[r] > now:
                    continue
                batch = batchers[r].next_batch(queues[r], now, drain=i >= n)
                if batch is None:
                    continue
                engine = engines[r]
                if engine.hooks is not None:
                    engine.hooks.on_batch_flush(batch, now)
                execution = engine.execute(batch)
                engine_free[r] = now + execution.service_time_s
                est = service_est[r]
                service_est[r] = (
                    execution.service_time_s if est is None
                    else (1 - SERVICE_EWMA_ALPHA) * est
                    + SERVICE_EWMA_ALPHA * execution.service_time_s
                )
                stats.record_batch(
                    batch, now, execution.service_time_s, execution.trace,
                    warm=execution.warm if engine.plan_cache is not None else None,
                    replica=r,
                )
                for idx, req in enumerate(batch.requests):
                    stats.record_completion(
                        CompletedRequest(
                            rid=req.rid,
                            seq_len=req.seq_len,
                            arrival_time=req.arrival_time,
                            batch_id=batch.batch_id,
                            batch_size=batch.size,
                            padded_len=batch.padded_len,
                            service_start=now,
                            finish_time=engine_free[r],
                            result=self._slice_result(execution.logits, idx),
                            deadline=req.deadline,
                            replica=r,
                        )
                    )
                stats.record_replica_depth(r, now, len(queues[r]))
                if self.snapshots is not None:
                    self.snapshots.maybe_sample(engine_free[r])
                progressed = True
            if progressed:
                continue

            # 4. advance the clock to the next strictly-future event
            candidates = []
            if i < n:
                candidates.append(pending[i].arrival_time)
            for r in range(n_replicas):
                if engine_free[r] > now:
                    candidates.append(engine_free[r])
                if len(queues[r]):
                    flush_at = batchers[r].next_flush_time(queues[r])
                    if flush_at is not None and flush_at > now:
                        candidates.append(flush_at)
                    deadline = queues[r].next_deadline()
                    if deadline is not None and deadline > now:
                        candidates.append(deadline)
            if not candidates:
                break
            now = min(candidates)
        return stats

