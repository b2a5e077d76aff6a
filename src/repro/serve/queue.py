"""Bounded admission queue with backpressure and deadline expiry.

The queue is the only place requests wait; its capacity bound is the
serving layer's backpressure mechanism.  When full, it sheds the
*arriving* request (classic load shedding: tell the client now, while the
information is cheap; reason ``"queue_full"``).

A queued request whose deadline passes is *shed* (reason ``"deadline"``,
:data:`repro.serve.request.SHED_DEADLINE`) — it never reaches the batcher,
and never surfaces as a batcher timeout.

Pending requests are held twice, so that no operation scans the queue:
in push order, in a dict keyed by a push sequence number (iteration,
oldest arrival, removal by key), and by deadline, in a min-heap of
``(deadline, seq)`` whose entries for requests already taken are dropped
lazily when they reach the top.  :meth:`RequestQueue.next_deadline` is a
heap peek and :meth:`RequestQueue.expire` pops only the entries that are
due.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.serve.config import ServeConfig
from repro.serve.request import InferenceRequest


class RequestQueue:
    """FIFO of pending requests, bounded by ``config.queue_capacity``."""

    def __init__(self, *, config: Optional[ServeConfig] = None) -> None:
        cfg = config if config is not None else ServeConfig()
        self.capacity = cfg.queue_capacity
        #: push sequence number -> request, in push (FIFO) order
        self._pending: Dict[int, InferenceRequest] = {}
        #: ``id(request)`` -> its push sequence number (the key :meth:`take` deletes)
        self._seq_of: Dict[int, int] = {}
        #: min-heap of ``(deadline, seq)``; an entry whose seq is no longer
        #: pending is stale and skipped
        self._by_deadline: List[Tuple[float, int]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(self._pending.values())

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    def push(self, req: InferenceRequest) -> bool:
        """Admit ``req``; False when the queue is full and ``req`` is shed.

        ``req.deadline`` is read once, here, into the deadline heap.  A
        request already queued raises ``ValueError``: :meth:`take` and
        :meth:`expire` remove a request by identity, once.
        """
        if id(req) in self._seq_of:
            raise ValueError(f"request {req.rid} is already queued")
        if self.full:
            return False
        seq = self._next_seq
        self._next_seq = seq + 1
        self._pending[seq] = req
        self._seq_of[id(req)] = seq
        if req.deadline is not None:
            heapq.heappush(self._by_deadline, (req.deadline, seq))
        return True

    def expire(self, now: float, horizon: float = 0.0) -> List[InferenceRequest]:
        """Remove and return every queued request whose deadline has passed.

        ``horizon`` extends the test to *doomed* requests: with ``horizon
        = service_estimate`` a request that could not meet its deadline
        even if dispatched this instant is shed now instead of burning a
        batch slot and completing late (the fleet's shed-not-timeout
        guarantee).  The victims come back in FIFO order.
        """
        heap = self._by_deadline
        pending = self._pending
        cut = now + horizon
        due = []
        while heap and cut > heap[0][0]:
            seq = heapq.heappop(heap)[1]
            if seq in pending:
                due.append(seq)
        if not due:
            return []
        due.sort()
        expired = [pending.pop(seq) for seq in due]
        for req in expired:
            del self._seq_of[id(req)]
        return expired

    def take(self, requests: Iterable[InferenceRequest]) -> None:
        """Remove a specific set of requests (claimed by the batcher)."""
        pending = self._pending
        for req in requests:
            seq = self._seq_of.pop(id(req), None)
            if seq is not None:
                del pending[seq]
        # stale heap entries are dropped when they surface; rebuild once
        # they outnumber the live ones, so the heap stays O(len(self))
        heap = self._by_deadline
        if len(heap) > 2 * len(pending):
            heap[:] = [entry for entry in heap if entry[1] in pending]
            heapq.heapify(heap)

    def oldest_arrival(self) -> Optional[float]:
        """Arrival time of the longest-waiting request (None when empty)."""
        if not self._pending:
            return None
        return next(iter(self._pending.values())).arrival_time

    def next_deadline(self) -> Optional[float]:
        """Earliest queued deadline (None when no queued request has one)."""
        heap = self._by_deadline
        while heap and heap[0][1] not in self._pending:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
