"""The unified serving-configuration API (docs/SERVING.md).

:class:`ServeConfig` is the serving-layer sibling of
:class:`~repro.config.ExecutionConfig`: one frozen dataclass that names
everything between the wire and the engines — replica count, routing
policy, per-tenant admission rate, SLO deadline budget, batcher mode,
queue bound — accepted by :class:`~repro.serve.fleet.FleetServer`,
:class:`~repro.serve.batcher.DynamicBatcher` and
:class:`~repro.serve.queue.RequestQueue` through one ``config=``
parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

#: routing policies (see :mod:`repro.serve.router`)
ROUTER_POLICIES = ("least_loaded", "hash")

#: batcher dispatch modes (see :class:`~repro.serve.batcher.DynamicBatcher`)
BATCHER_MODES = ("flush", "continuous")


@dataclass(frozen=True)
class ServeConfig:
    """Immutable description of one serving setup.

    Parameters
    ----------
    replicas:
        Engine replicas in the fleet (:class:`~repro.serve.fleet.ReplicaPool`).
    router:
        ``"least_loaded"`` — route each request to the replica with the
        smallest backlog; ``"hash"`` — consistent-hash on the request's
        length bucket, so one shape always lands on its home replica and
        that replica's cache entry stays warm (docs/SERVING.md).
    batcher:
        ``"flush"`` — classic flush-and-wait: a bucket dispatches when it
        fills (``max_batch_size``) or its head request has waited
        ``max_wait``.  ``"continuous"`` — continuous batching: whenever an
        engine goes idle the fullest bucket dispatches immediately, and
        arrivals accumulate into the waiting buckets while engines are
        busy (work-conserving; ``max_wait`` never holds the engine idle).
    tenant_rate_hz:
        Per-tenant token-bucket admission: sustained requests/s per tenant
        (burst capacity :data:`~repro.serve.admission.TENANT_BURST`).
        ``None`` disables rate limiting.
    deadline_slo_s:
        Default latency budget: requests arriving without a deadline get
        ``deadline = arrival + deadline_slo_s`` at fleet admission.
        ``None`` leaves undeadlined requests unbounded.
    queue_capacity:
        Per-replica queue bound; an arrival at a full queue is shed
        (:class:`~repro.serve.queue.RequestQueue`).
    max_batch_size / max_wait / bucket_width:
        The batching knobs (:class:`~repro.serve.batcher.DynamicBatcher`).
    """

    replicas: int = 1
    router: str = "least_loaded"
    batcher: str = "flush"
    tenant_rate_hz: Optional[float] = None
    deadline_slo_s: Optional[float] = None
    queue_capacity: int = 256
    max_batch_size: int = 8
    max_wait: float = 5e-3
    bucket_width: int = 16

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"router must be one of {ROUTER_POLICIES}, got {self.router!r}"
            )
        if self.batcher not in BATCHER_MODES:
            raise ValueError(
                f"batcher must be one of {BATCHER_MODES}, got {self.batcher!r}"
            )
        if self.tenant_rate_hz is not None and self.tenant_rate_hz <= 0:
            raise ValueError("tenant_rate_hz must be positive (or None)")
        if self.deadline_slo_s is not None and self.deadline_slo_s <= 0:
            raise ValueError("deadline_slo_s must be positive (or None)")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")

    #: ``config.replace(**changes)``: a copy with ``changes`` applied
    replace = dataclasses.replace

    # -- factories -------------------------------------------------------------
    # (local imports: the concrete classes import this module)

    def make_queue(self) -> "RequestQueue":
        from repro.serve.queue import RequestQueue

        return RequestQueue(config=self)

    def make_batcher(self) -> "DynamicBatcher":
        from repro.serve.batcher import DynamicBatcher

        return DynamicBatcher(config=self)

    def make_router(self) -> "Router":
        from repro.serve.router import make_router

        return make_router(self)

    def make_admission(self) -> "AdmissionController":
        from repro.serve.admission import AdmissionController

        return AdmissionController(self)

