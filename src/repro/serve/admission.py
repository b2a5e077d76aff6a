"""Admission control: shed load before queueing, not after.

Two mechanisms, both applied at arrival time (the cheapest possible
moment to say no):

* **Per-tenant token buckets** — each tenant sustains ``tenant_rate_hz``
  requests/s with bursts up to :data:`TENANT_BURST`; a tenant that exhausts
  its bucket is shed with reason ``"tenant"`` and cannot starve the
  other tenants' capacity.
* **Deadline budgets** — given a routing decision, the controller
  predicts when the request would *finish* (current backlog on the
  target replica × an EWMA service estimate, plus the in-flight batch's
  remaining time) and sheds with reason ``"deadline"`` any request whose
  prediction already misses its deadline.  A request that is doomed at
  arrival should be refused while the information is cheap, not queued,
  executed and delivered late.

Deterministic: refill arithmetic is pure function of the (virtual) clock,
so simulated serving runs remain bit-reproducible.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.serve.config import ServeConfig
from repro.serve.request import SHED_DEADLINE, SHED_TENANT, InferenceRequest

#: per-tenant token-bucket burst capacity (requests)
TENANT_BURST = 8.0

#: multiplier on the predicted queue wait in the deadline budget: a request is
#: shed on arrival when ``now + slack * predicted_wait + service_estimate``
#: already misses its deadline
ADMISSION_SLACK = 1.0


class TokenBucket:
    """The classic rate limiter: ``rate_hz`` tokens/s, ``burst`` capacity.

    Starts full (a fresh tenant may burst immediately).  Refill happens
    on demand from elapsed time, so no background clock is needed and the
    arithmetic is exact for the event-driven serving loop.
    """

    def __init__(self, rate_hz: float, burst: float) -> None:
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_hz = rate_hz
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        # A non-monotonic clock never mints tokens (nor revokes them).
        if now > self._last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last_refill) * self.rate_hz
            )
            self._last_refill = now

    def try_take(self, now: float) -> bool:
        """Take one token if available; False leaves the bucket unchanged."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant rate limits + SLO deadline budgets for one fleet."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._buckets: Dict[str, TokenBucket] = {}

    def bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        if self.config.tenant_rate_hz is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate_hz, TENANT_BURST)
            self._buckets[tenant] = bucket
        return bucket

    def admit(
        self,
        req: InferenceRequest,
        now: float,
        predicted_wait_s: Optional[float] = None,
        service_estimate_s: Optional[float] = None,
    ) -> Optional[str]:
        """Admit ``req`` (None) or return the shed reason.

        ``predicted_wait_s`` is the routed replica's backlog estimate and
        ``service_estimate_s`` the expected batch service time; either
        being unknown (cold fleet) skips the deadline budget — admission
        never sheds on a guess it cannot make.
        """
        bucket = self.bucket_for(req.tenant)
        if bucket is not None and not bucket.try_take(now):
            return SHED_TENANT
        if (
            req.deadline is not None
            and predicted_wait_s is not None
            and service_estimate_s is not None
        ):
            predicted_finish = now + ADMISSION_SLACK * predicted_wait_s + service_estimate_s
            if predicted_finish > req.deadline:
                return SHED_DEADLINE
        return None
