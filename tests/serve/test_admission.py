"""Admission control: token-bucket edges, deadline budgets, tenant isolation."""

import pytest

from repro.serve import (
    SHED_DEADLINE,
    SHED_TENANT,
    AdmissionController,
    InferenceRequest,
    TokenBucket,
)
from repro.serve.admission import TENANT_BURST
from repro.serve.config import ServeConfig


def req(rid=0, deadline=None, tenant="default"):
    return InferenceRequest(rid=rid, seq_len=10, arrival_time=0.0,
                            deadline=deadline, tenant=tenant)


# -- token bucket ---------------------------------------------------------------

def test_bucket_starts_full_and_depletes():
    b = TokenBucket(rate_hz=10.0, burst=3)
    assert b.tokens == 3.0
    assert all(b.try_take(0.0) for _ in range(3))  # the whole burst, at once
    assert not b.try_take(0.0)  # fourth is refused
    assert b.tokens == 0.0


def test_refill_is_proportional_and_clamped_at_burst():
    b = TokenBucket(rate_hz=10.0, burst=4)
    for _ in range(4):
        b.try_take(0.0)
    assert b.try_take(0.1)          # 0.1 s * 10 /s = exactly one token minted
    assert not b.try_take(0.1)      # ... and it was just spent
    # a long idle refills to burst, no further
    assert [b.try_take(100.0) for _ in range(5)] == [True] * 4 + [False]


def test_non_monotonic_clock_never_mints_tokens():
    b = TokenBucket(rate_hz=10.0, burst=2)
    b.try_take(1.0)
    b.try_take(1.0)
    assert not b.try_take(0.5)  # clock went backwards: no free tokens
    assert not b.try_take(0.0) and b.tokens == 0.0


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_hz=0.0, burst=2)
    with pytest.raises(ValueError):
        TokenBucket(rate_hz=1.0, burst=0.5)


# -- controller -----------------------------------------------------------------

def test_no_rate_limit_admits_everything():
    ctrl = AdmissionController(ServeConfig())
    assert ctrl.bucket_for("a") is None
    for i in range(1000):
        assert ctrl.admit(req(rid=i), now=0.0) is None


def test_tenants_are_isolated():
    ctrl = AdmissionController(ServeConfig(tenant_rate_hz=10.0))
    # tenant a burns its burst; tenant b is untouched
    for i in range(int(TENANT_BURST)):
        assert ctrl.admit(req(i, tenant="a"), 0.0) is None
    assert ctrl.admit(req(98, tenant="a"), 0.0) == SHED_TENANT
    assert ctrl.admit(req(99, tenant="b"), 0.0) is None
    # ... and a's bucket refills with time
    assert ctrl.admit(req(100, tenant="a"), 0.2) is None


def test_deadline_budget_sheds_predicted_misses():
    ctrl = AdmissionController(ServeConfig())
    doomed = req(0, deadline=0.05)
    # predicted finish 0.0 + 1.0*0.04 + 0.02 = 0.06 > 0.05 -> shed now
    assert ctrl.admit(doomed, 0.0, predicted_wait_s=0.04,
                      service_estimate_s=0.02) == SHED_DEADLINE
    # with headroom the same request is admitted
    assert ctrl.admit(req(1, deadline=0.1), 0.0, predicted_wait_s=0.04,
                      service_estimate_s=0.02) is None


def test_budget_never_sheds_on_unknown_estimates():
    """A cold fleet has no service estimate — admission must not guess."""
    ctrl = AdmissionController(ServeConfig())
    tight = req(0, deadline=1e-9)
    assert ctrl.admit(tight, 0.0) is None
    assert ctrl.admit(tight, 0.0, predicted_wait_s=5.0) is None  # no service est
