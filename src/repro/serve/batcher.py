"""Dynamic batching: coalesce queued requests into padded batches.

The batcher trades latency for throughput with two knobs:

* ``max_batch_size`` — flush a bucket the moment it can fill a batch
  (size-triggered flush; amortises per-batch fixed costs).
* ``max_wait`` — never hold the longest-waiting request beyond this bound
  (timeout-triggered flush; caps the latency cost of waiting for peers).

Requests are grouped into **length buckets** (multiples of
``bucket_width``, the same convention as
:func:`repro.data.batching.bucket_by_length`) and a batch is always cut
from a single bucket, so padding waste inside a batch is bounded by
``bucket_width - 1`` frames per sequence.

Two dispatch modes (``ServeConfig.batcher``):

* ``"flush"`` — flush-and-wait: a partial bucket holds for ``max_wait``
  hoping peers arrive, even while the engine sits idle.
* ``"continuous"`` — continuous batching: the moment the engine is idle
  the fullest bucket dispatches, and requests arriving while the engine
  is busy accumulate into the waiting length buckets, joining the next
  dispatch instead of waiting out a timer.  Work-conserving: the engine
  never idles while requests wait, which is what keeps per-request
  latency flat as load rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.data.batching import pad_sequences
from repro.serve.config import ServeConfig
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest

#: what caused a batch to be cut
SIZE_TRIGGER = "size"
TIMEOUT_TRIGGER = "timeout"
DRAIN_TRIGGER = "drain"
CONTINUOUS_TRIGGER = "continuous"


@dataclass
class Batch:
    """A cut batch: requests of one length bucket, ready to execute."""

    batch_id: int
    requests: List[InferenceRequest]
    padded_len: int
    trigger: str
    cut_time: float

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def useful_frames(self) -> int:
        return sum(r.seq_len for r in self.requests)

    @property
    def padded_frames(self) -> int:
        return self.padded_len * self.size

    @property
    def padding_waste(self) -> float:
        """Fraction of computed frames that are padding."""
        return 1.0 - self.useful_frames / self.padded_frames

    def padded_input(self) -> np.ndarray:
        """``(padded_len, B, F)`` tensor for functional execution."""
        payloads = [r.x for r in self.requests]
        if any(p is None for p in payloads):
            raise ValueError("batch contains cost-only requests (no payload)")
        x, _ = pad_sequences(payloads, length=self.padded_len)
        return x


class DynamicBatcher:
    """Cuts :class:`Batch` es from a :class:`RequestQueue`."""

    def __init__(self, *, config: Optional[ServeConfig] = None) -> None:
        cfg = config if config is not None else ServeConfig()
        self.config = cfg
        self.max_batch_size = cfg.max_batch_size
        self.max_wait = cfg.max_wait
        self.bucket_width = cfg.bucket_width
        self.mode = cfg.batcher
        self._next_batch_id = 0

    def bucket_of(self, seq_len: int) -> int:
        """Padded length for a sequence: ``seq_len`` rounded up to the bucket."""
        w = self.bucket_width
        return ((seq_len + w - 1) // w) * w

    def _buckets(self, queue: RequestQueue) -> Dict[int, List[InferenceRequest]]:
        buckets: Dict[int, List[InferenceRequest]] = {}
        for req in queue:  # queue iterates in arrival (FIFO) order
            buckets.setdefault(self.bucket_of(req.seq_len), []).append(req)
        return buckets

    def next_flush_time(self, queue: RequestQueue) -> Optional[float]:
        """Time at which the timeout trigger will fire (None when none will).

        Continuous mode has no timers — dispatch is driven by engine
        idleness, so there is never a timeout event to wake up for.  In
        flush mode a request that will be expired by its own flush instant
        (``deadline < arrival + max_wait``) is skipped: its wake-up event
        is its deadline, and surfacing it as a batcher timeout would
        misattribute a deadline shed (docs/SERVING.md).
        """
        if self.mode == "continuous":
            return None
        for r in queue:  # FIFO: the first viable request flushes earliest
            t = r.arrival_time + self.max_wait
            if r.deadline is None or r.deadline >= t:
                return t
        return None

    def next_batch(
        self, queue: RequestQueue, now: float, drain: bool = False
    ) -> Optional[Batch]:
        """Cut the next ready batch, or return None if nothing should flush.

        Flush rules, in priority order:

        1. size — some bucket can fill a whole ``max_batch_size`` batch;
        2. (continuous mode) the engine is idle and requests wait — the
           fullest bucket dispatches immediately, whatever its size;
        3. timeout — the longest-waiting request has waited ``max_wait``,
           so its bucket flushes partially filled (flush mode only);
        4. drain — ``drain=True`` (no more arrivals will ever come) flushes
           the oldest bucket immediately.

        Within a bucket requests are taken oldest-first (FIFO).  The
        caller only invokes this when an engine is idle, so in continuous
        mode a non-empty queue always yields a batch (work conservation).
        """
        buckets = self._buckets(queue)
        if not buckets:
            return None

        chosen: Optional[List[InferenceRequest]] = None
        trigger = SIZE_TRIGGER
        full = [reqs for reqs in buckets.values() if len(reqs) >= self.max_batch_size]
        if full:
            # serve the fullest bucket first; ties broken by oldest head
            chosen = max(full, key=lambda rs: (len(rs), -rs[0].arrival_time))
        elif self.mode == "continuous":
            chosen = max(buckets.values(), key=lambda rs: (len(rs), -rs[0].arrival_time))
            trigger = CONTINUOUS_TRIGGER
        else:
            oldest = queue.oldest_arrival()
            if oldest is not None and (drain or now - oldest >= self.max_wait):
                trigger = DRAIN_TRIGGER if drain and now - oldest < self.max_wait \
                    else TIMEOUT_TRIGGER
                # flush the bucket holding the longest-waiting request
                chosen = min(buckets.values(), key=lambda rs: rs[0].arrival_time)
        if chosen is None:
            return None

        taken = chosen[: self.max_batch_size]
        queue.take(taken)
        batch = Batch(
            batch_id=self._next_batch_id,
            requests=taken,
            padded_len=max(self.bucket_of(r.seq_len) for r in taken),
            trigger=trigger,
            cut_time=now,
        )
        self._next_batch_id += 1
        return batch
