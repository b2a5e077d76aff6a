"""Inference serving on top of the B-Par runtime.

The serving layer turns the repo's offline engines into an online system:
a stream of independent, variable-length inference requests is admitted
through a bounded :class:`RequestQueue` (backpressure: shed when full or
doomed by deadline), coalesced by a :class:`DynamicBatcher` into padded
length-bucketed batches — timer-flushed or continuous — and executed by
an :class:`InferenceEngine` as one barrier-free task graph per batch, on
real threads or, deterministically, on the simulated 48-core machine.

Every serving knob lives on one frozen :class:`ServeConfig` (mirroring
:class:`~repro.config.ExecutionConfig` for execution).  One loop serves
everything: :class:`~repro.serve.fleet.FleetServer` runs a fleet of
replicas behind a pluggable router (least-loaded or
consistent-hash-by-shape), per-tenant
:class:`~repro.serve.admission.AdmissionController` token buckets, SLO
deadline budgets that shed before queueing, and per-shape compiled-plan
warmup at fleet start; :class:`Server` is its one-replica case around an
engine the caller built.  :class:`ServerStats` (alias
:class:`FleetStats`) reports the SLO picture: p50/p95/p99 latency,
throughput, shed taxonomy, queue depth, batch-size histogram, padding
overhead and warm plan hit rate.

See ``docs/SERVING.md`` for the architecture, and
``python -m repro serve-bench`` /
``python -m repro bench fleet`` for the arrival-rate sweeps and the
fleet soak benchmark.
"""

from repro.serve.request import (
    COMPLETED,
    SHED,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_REASONS,
    SHED_TENANT,
    CompletedRequest,
    InferenceRequest,
)
from repro.serve.config import ServeConfig
from repro.serve.queue import RequestQueue
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.engine import BatchExecution, InferenceEngine
from repro.serve.stats import BatchRecord, ServerStats
from repro.serve.router import ConsistentHashRouter, LeastLoadedRouter, make_router
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.loadgen import (
    WorkloadConfig,
    bursty_workload,
    make_workload,
    poisson_workload,
)
from repro.serve.server import Server, serve_workload
from repro.serve.fleet import FleetServer, FleetStats, ReplicaPool, serve_fleet

__all__ = [
    "InferenceRequest",
    "CompletedRequest",
    "COMPLETED",
    "SHED",
    "SHED_QUEUE_FULL",
    "SHED_TENANT",
    "SHED_DEADLINE",
    "SHED_REASONS",
    "ServeConfig",
    "RequestQueue",
    "DynamicBatcher",
    "Batch",
    "InferenceEngine",
    "BatchExecution",
    "ServerStats",
    "BatchRecord",
    "LeastLoadedRouter",
    "ConsistentHashRouter",
    "make_router",
    "TokenBucket",
    "AdmissionController",
    "WorkloadConfig",
    "poisson_workload",
    "bursty_workload",
    "make_workload",
    "Server",
    "serve_workload",
    "ReplicaPool",
    "FleetServer",
    "FleetStats",
    "serve_fleet",
]
