"""Replica routing: which engine replica serves which request.

Two policies (``ServeConfig.router``):

* ``"least_loaded"`` — classic join-the-shortest-queue: each request goes
  to the replica with the smallest backlog (queued requests, then
  remaining busy time, then index for determinism).  Best raw load
  balance; spreads every batch shape across every replica, so each
  replica compiles every shape.
* ``"hash"`` — consistent hashing on the request's **length bucket** (the
  batcher's padding class).  One shape always lands on its home replica,
  so that replica's compiled plan (docs/COMPILE.md) stays warm and the
  fleet compiles each shape once instead of ``replicas`` times.  The ring
  uses :data:`HASH_VNODES` virtual nodes per replica hashed with sha256
  (Python's builtin ``hash`` is salted per process — useless for a
  reproducible ring), so adding or removing a replica only remaps the
  keys the changed replica owned — every other shape keeps its warm home.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Sequence, Tuple

from repro.data.batching import padded_length
from repro.serve.config import ServeConfig
from repro.serve.request import InferenceRequest

#: what a router consumes to pick a replica: one entry per replica of
#: ``(queued_requests, busy_remaining_s)``
ReplicaLoad = Tuple[int, float]

#: virtual nodes per replica on the consistent-hash ring: more vnodes give a
#: smoother key spread and a slower ring build
HASH_VNODES = 64


def _point(label: str) -> int:
    """Deterministic 64-bit ring position for a label."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class LeastLoadedRouter:
    """Join-the-shortest-queue across the replica pool."""

    policy = "least_loaded"

    def __init__(self, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.n_replicas = n_replicas

    def route(
        self, req: InferenceRequest, loads: Sequence[ReplicaLoad]
    ) -> int:
        return min(
            range(self.n_replicas),
            key=lambda r: (loads[r][0], loads[r][1], r),
        )


class ConsistentHashRouter:
    """Length-bucket → replica assignment on a consistent-hash ring.

    The routing key is the request's padded length bucket
    (``ceil(seq_len / bucket_width) * bucket_width``) — the same class the
    batcher pads to and the engine compiles plans for, which is exactly
    the granularity at which plan warmth matters.
    """

    policy = "hash"

    def __init__(
        self,
        n_replicas: int,
        bucket_width: int = 16,
        vnodes: int = HASH_VNODES,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.bucket_width = bucket_width
        self.vnodes = vnodes
        #: sorted (ring position, replica id); rebuilt incrementally
        self._ring: List[Tuple[int, int]] = []
        self._members: set = set()
        for replica in range(n_replicas):
            self.add_replica(replica)

    def add_replica(self, replica: int) -> None:
        """Join ``replica``: only keys it now owns move to it."""
        if replica in self._members:
            raise ValueError(f"replica {replica} already on the ring")
        self._members.add(replica)
        for v in range(self.vnodes):
            entry = (_point(f"replica:{replica}:vnode:{v}"), replica)
            bisect.insort(self._ring, entry)

    def key_of(self, req: InferenceRequest) -> str:
        return f"shape:{padded_length(req.seq_len, self.bucket_width)}"

    def route_key(self, key: str) -> int:
        """First ring point clockwise of the key's position (with wrap)."""
        idx = bisect.bisect_right(self._ring, (_point(key), 1 << 62))
        if idx == len(self._ring):
            idx = 0
        return self._ring[idx][1]

    def route(
        self, req: InferenceRequest, loads: Optional[Sequence[ReplicaLoad]] = None
    ) -> int:
        return self.route_key(self.key_of(req))


def make_router(config: ServeConfig):
    """Build the configured router for a ``config.replicas``-wide pool."""
    if config.router == "least_loaded":
        return LeastLoadedRouter(config.replicas)
    return ConsistentHashRouter(config.replicas, bucket_width=config.bucket_width)
