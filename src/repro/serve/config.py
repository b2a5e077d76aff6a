"""The unified serving-configuration API (docs/SERVING.md).

:class:`ServeConfig` is the serving-layer sibling of
:class:`~repro.config.ExecutionConfig`: one frozen dataclass that names
everything between the wire and the engines — replica count, routing
policy, per-tenant admission limits, SLO deadline budgets, batcher mode,
queue bounds — accepted by :class:`~repro.serve.server.Server`,
:class:`~repro.serve.fleet.FleetServer`,
:class:`~repro.serve.batcher.DynamicBatcher` and
:class:`~repro.serve.queue.RequestQueue` through one ``config=``
parameter.

:func:`add_serve_args` / :func:`serve_config_from_args` are the argparse
half: the serving flag group of ``serve-bench``.

:meth:`ServeConfig.fingerprint` feeds the engine plan-cache key (via
``InferenceEngine(serve_config=...)``), so compiled plans warmed for one
serving deployment never collide with another's.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

#: queue overflow policies (see :class:`~repro.serve.queue.RequestQueue`)
QUEUE_POLICIES = ("reject", "drop_oldest")

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
        The single-engine :class:`~repro.serve.server.Server` is the
        one-replica fleet and requires 1.
    router:
        ``"least_loaded"`` — route each request to the replica with the
        smallest backlog; ``"hash"`` — consistent-hash on the request's
        length bucket, so one shape always lands on its home replica and
        that replica's compiled plan stays warm (docs/SERVING.md).
    hash_vnodes:
        Virtual nodes per replica on the consistent-hash ring (``router=
        "hash"``); more vnodes = smoother key spread, slower ring build.
    batcher:
        ``"flush"`` — classic flush-and-wait: a bucket dispatches when it
        fills (``max_batch_size``) or its head request has waited
        ``max_wait``.  ``"continuous"`` — continuous batching: whenever an
        engine goes idle the fullest bucket dispatches immediately, and
        arrivals accumulate into the waiting buckets while engines are
        busy (work-conserving; ``max_wait`` never holds the engine idle).
    tenant_rate_hz / tenant_burst:
        Per-tenant token-bucket admission: sustained requests/s and burst
        capacity per tenant.  ``None`` disables rate limiting.
    deadline_slo_s:
        Default latency budget: requests arriving without a deadline get
        ``deadline = arrival + deadline_slo_s`` at fleet admission.
        ``None`` leaves undeadlined requests unbounded.
    admission_slack:
        Multiplier on the predicted queue wait in the admission deadline
        budget: a request is shed on arrival when ``now + slack *
        predicted_wait + service_estimate`` already misses its deadline —
        shed before queueing, not after.  ``0`` disables the prediction.
    queue_capacity / queue_policy:
        Per-replica queue bound and overflow policy
        (:class:`~repro.serve.queue.RequestQueue`).
    max_batch_size / max_wait / bucket_width:
        The batching knobs (:class:`~repro.serve.batcher.DynamicBatcher`).
    warmup:
        Pre-compile per-shape plans on every replica at fleet start
        (:meth:`~repro.serve.fleet.ReplicaPool.warmup`; needs
        ``ExecutionConfig(compile="on")``).
    """

    replicas: int = 1
    router: str = "least_loaded"
    hash_vnodes: int = 64
    batcher: str = "flush"
    tenant_rate_hz: Optional[float] = None
    tenant_burst: float = 8.0
    deadline_slo_s: Optional[float] = None
    admission_slack: float = 1.0
    queue_capacity: int = 256
    queue_policy: str = "reject"
    max_batch_size: int = 8
    max_wait: float = 5e-3
    bucket_width: int = 16
    warmup: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"router must be one of {ROUTER_POLICIES}, got {self.router!r}"
            )
        if self.hash_vnodes < 1:
            raise ValueError("hash_vnodes must be >= 1")
        if self.batcher not in BATCHER_MODES:
            raise ValueError(
                f"batcher must be one of {BATCHER_MODES}, got {self.batcher!r}"
            )
        if self.tenant_rate_hz is not None and self.tenant_rate_hz <= 0:
            raise ValueError("tenant_rate_hz must be positive (or None)")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        if self.deadline_slo_s is not None and self.deadline_slo_s <= 0:
            raise ValueError("deadline_slo_s must be positive (or None)")
        if self.admission_slack < 0:
            raise ValueError("admission_slack must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got {self.queue_policy!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable hash of the serving fields (hex, 16 chars).

        Mixed into the engine plan-cache key alongside
        :meth:`~repro.config.ExecutionConfig.fingerprint`, and recorded as
        BENCH provenance; stable across processes and runs (sha256 of a
        canonical JSON encoding).
        """
        payload = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

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


# -- CLI integration -----------------------------------------------------------

def add_serve_args(parser: argparse.ArgumentParser) -> None:
    """The one shared "serving options" argparse group.

    ``serve-bench`` reads these flags; :func:`serve_config_from_args`
    turns the parsed namespace back into a one-replica
    :class:`ServeConfig` (and :func:`workload_config_from_args` into the
    matching :class:`~repro.serve.loadgen.WorkloadConfig`).
    """
    g = parser.add_argument_group("serving options")
    g.add_argument("--arrival-rate", type=float, default=200.0,
                   help="mean request arrival rate (req/s)")
    g.add_argument("--duration", type=float, default=5.0,
                   help="length of the arrival window (s, server clock)")
    g.add_argument("--workload", choices=("poisson", "bursty"), default="poisson")
    g.add_argument("--slo", type=float, default=None,
                   help="per-request deadline (s after arrival); requests "
                        "that cannot meet it are shed")
    g.add_argument("--max-batch-size", type=int, default=32)
    g.add_argument("--max-wait", type=float, default=5e-3,
                   help="batcher timeout: max queuing delay before a partial "
                        "flush (s; flush mode only)")
    g.add_argument("--bucket-width", type=int, default=20,
                   help="sequence-length bucket granularity (frames)")
    g.add_argument("--batcher", choices=BATCHER_MODES, default="flush",
                   help="flush-and-wait or continuous (work-conserving) batching")
    g.add_argument("--queue-capacity", type=int, default=128)
    g.add_argument("--queue-policy", choices=QUEUE_POLICIES, default="reject")
    g.add_argument("--tenants", type=int, default=1,
                   help="tenants the workload round-robins requests over")
    g.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant sustained admission rate (req/s; "
                        "None disables rate limiting)")
    g.add_argument("--tenant-burst", type=float, default=8.0,
                   help="per-tenant token-bucket burst capacity")
    g.add_argument("--no-warmup", action="store_true",
                   help="skip per-shape compiled-plan warmup at fleet start")


def serve_config_from_args(args: argparse.Namespace) -> ServeConfig:
    """:class:`ServeConfig` from an :func:`add_serve_args` namespace."""
    return ServeConfig(
        batcher=args.batcher,
        tenant_rate_hz=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        deadline_slo_s=args.slo,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
        bucket_width=args.bucket_width,
        warmup=not args.no_warmup,
    )


def workload_config_from_args(
    args: argparse.Namespace,
    seq_len_range: Tuple[int, int],
    features: Optional[int] = None,
) -> "WorkloadConfig":
    """:class:`~repro.serve.loadgen.WorkloadConfig` from the same namespace."""
    from repro.serve.loadgen import WorkloadConfig

    return WorkloadConfig(
        rate_hz=args.arrival_rate,
        duration_s=args.duration,
        seq_len_range=seq_len_range,
        features=features,
        slo_s=args.slo,
        tenants=args.tenants,
    )
