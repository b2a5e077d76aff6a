"""Bounded admission queue with backpressure and deadline expiry.

The queue is the only place requests wait; its capacity bound is the
serving layer's backpressure mechanism.  When full, it sheds the
*arriving* request (classic load shedding: tell the client now, while the
information is cheap; reason ``"queue_full"``).

A queued request whose deadline passes is *shed* (reason ``"deadline"``,
:data:`repro.serve.request.SHED_DEADLINE`) — it never reaches the batcher,
and never surfaces as a batcher timeout.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.serve.config import ServeConfig
from repro.serve.request import InferenceRequest


class RequestQueue:
    """FIFO of pending requests, bounded by ``config.queue_capacity``."""

    def __init__(self, *, config: Optional[ServeConfig] = None) -> None:
        cfg = config if config is not None else ServeConfig()
        self.capacity = cfg.queue_capacity
        self._pending: Deque[InferenceRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self):
        return iter(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    def push(self, req: InferenceRequest) -> bool:
        """Admit ``req``; False when the queue is full and ``req`` is shed."""
        if self.full:
            return False
        self._pending.append(req)
        return True

    def expire(self, now: float, horizon: float = 0.0) -> List[InferenceRequest]:
        """Remove and return every queued request whose deadline has passed.

        ``horizon`` extends the test to *doomed* requests: with ``horizon
        = service_estimate`` a request that could not meet its deadline
        even if dispatched this instant is shed now instead of burning a
        batch slot and completing late (the fleet's shed-not-timeout
        guarantee).
        """
        if not self._pending:
            return []
        cut = now + horizon
        expired = [r for r in self._pending if r.expired(cut)]
        if expired:
            self._pending = deque(r for r in self._pending if not r.expired(cut))
        return expired

    def take(self, requests: Iterable[InferenceRequest]) -> None:
        """Remove a specific set of requests (claimed by the batcher)."""
        claimed = {id(r) for r in requests}
        self._pending = deque(r for r in self._pending if id(r) not in claimed)

    def oldest_arrival(self) -> Optional[float]:
        """Arrival time of the longest-waiting request (None when empty)."""
        return self._pending[0].arrival_time if self._pending else None

    def next_deadline(self) -> Optional[float]:
        """Earliest queued deadline (None when no queued request has one)."""
        deadlines = [r.deadline for r in self._pending if r.deadline is not None]
        return min(deadlines) if deadlines else None
