"""Inference requests and their lifecycle records.

A request enters the serving layer with an arrival time, a sequence length,
a tenant and (optionally) a payload and a deadline.  The layer resolves
every request to exactly one terminal state:

* ``completed`` — executed inside some batch; carries full timing.
* ``shed`` — dropped unexecuted, with a reason:

  * ``queue_full`` — backpressure: the bounded queue was full;
  * ``tenant`` — the tenant's token-bucket admission limit was exhausted;
  * ``deadline`` — its deadline passed while queued, or the admission
    budget predicted it could no longer complete in time (shed *before*
    queueing rather than served late).
  * ``malformed`` — its payload is not ``(seq_len, input_size)`` or holds
    a non-finite value (checked at arrival, before anything else).

All times are seconds on the server clock: virtual (simulated) time when
serving on the :class:`~repro.runtime.simexec.SimulatedExecutor`, wall time
deltas when serving on the :class:`~repro.runtime.executor.ThreadedExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: terminal states a request can reach
COMPLETED = "completed"
SHED = "shed"

#: why a request was shed (the ``reason`` taxonomy of :class:`FleetStats`)
SHED_QUEUE_FULL = "queue_full"
SHED_TENANT = "tenant"
SHED_DEADLINE = "deadline"
SHED_MALFORMED = "malformed"
SHED_REASONS = (SHED_QUEUE_FULL, SHED_TENANT, SHED_DEADLINE, SHED_MALFORMED)


@dataclass
class InferenceRequest:
    """One independent inference request.

    ``x`` is the ``(seq_len, features)`` payload for functional (threaded)
    serving; cost-only simulated serving needs only ``seq_len``.
    ``deadline`` is an *absolute* server-clock time after which the result
    is useless and the request may be dropped unexecuted.  ``tenant``
    names the traffic source for per-tenant admission control.
    """

    rid: int
    seq_len: int
    arrival_time: float
    deadline: Optional[float] = None
    x: Optional[np.ndarray] = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise ValueError(f"request {self.rid}: seq_len must be >= 1")
        if self.x is not None and self.x.shape[0] != self.seq_len:
            raise ValueError(
                f"request {self.rid}: payload has {self.x.shape[0]} frames, "
                f"declared seq_len={self.seq_len}"
            )

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def with_deadline(self, deadline: float) -> "InferenceRequest":
        """A copy carrying ``deadline`` that shares the payload; ``self`` is
        left as it is.

        The fleet makes one per arrival that lacks a deadline, so it calls
        the constructor directly: ``dataclasses.replace`` costs three times
        as much, and copying ``__dict__`` makes both objects carry a dict.
        Every field is passed (``tests/serve/test_queue.py`` checks the list).
        """
        return type(self)(
            self.rid, self.seq_len, self.arrival_time, deadline, self.x, self.tenant
        )


@dataclass
class CompletedRequest:
    """Timing record of a request that made it through a batch."""

    rid: int
    seq_len: int
    arrival_time: float
    batch_id: int
    batch_size: int
    padded_len: int
    service_start: float
    finish_time: float
    #: this request's logits (functional/threaded serving only)
    result: Optional[np.ndarray] = None
    #: the deadline it carried (SLO-attainment accounting)
    deadline: Optional[float] = None
    #: which replica executed it (0 on the single-engine server)
    replica: int = 0

    @property
    def latency(self) -> float:
        """End-to-end: arrival to batch completion."""
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        """Time spent queued before its batch started executing."""
        return self.service_start - self.arrival_time

    @property
    def met_deadline(self) -> bool:
        """Completed within its deadline (vacuously true without one)."""
        return self.deadline is None or self.finish_time <= self.deadline
