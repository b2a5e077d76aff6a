"""Momentum SGD through the task graph (paper §V extension)."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.models.reference import reference_train_step
from repro.runtime import ThreadedExecutor
from tests.conftest import make_batch, small_spec


def test_momentum_engine_allocates_velocity(spec):
    e = BParEngine(spec, momentum=0.9)
    assert e.velocity is not None
    assert all(not a.any() for _, a in e.velocity.arrays())
    e0 = BParEngine(spec, momentum=0.0)
    assert e0.velocity is None


def test_momentum_bitwise_matches_reference(spec):
    p_ref = BRNNParams.initialize(spec, seed=3)
    p_bpar = p_ref.copy()
    vel = BRNNParams.zeros_like(spec)
    engine = BParEngine(
        spec, params=p_bpar, momentum=0.9,
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    for step in range(5):
        x, labels = make_batch(spec, seed=step)
        l_ref = reference_train_step(spec, p_ref, x, labels, lr=0.1,
                                     momentum=0.9, velocity=vel)
        l_bpar = engine.train_batch(x, labels, lr=0.1)
        assert l_ref == l_bpar, f"diverged at step {step}"
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p_ref.arrays(), p_bpar.arrays()))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(vel.arrays(), engine.velocity.arrays()))


def test_momentum_differs_from_plain_sgd(spec):
    x, labels = make_batch(spec)
    plain = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    mom = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3), momentum=0.9,
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    # first step identical (velocity starts at 0: v = -lr*g)
    plain.train_batch(x, labels, lr=0.1)
    mom.train_batch(x, labels, lr=0.1)
    assert plain.params.allclose(mom.params)
    # second step diverges (velocity carries over)
    plain.train_batch(x, labels, lr=0.1)
    mom.train_batch(x, labels, lr=0.1)
    assert not plain.params.allclose(mom.params)


def test_momentum_accelerates_on_smooth_objective(spec):
    """On a repeated batch, momentum reaches a lower loss in the same steps."""
    x, labels = make_batch(spec, batch=16)
    plain = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    mom = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3), momentum=0.9,
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    for _ in range(12):
        lp = plain.train_batch(x, labels, lr=0.05)
        lm = mom.train_batch(x, labels, lr=0.05)
    assert lm < lp


def test_momentum_with_mbs_deterministic(spec):
    x, labels = make_batch(spec, batch=8)
    runs = []
    for workers in (1, 4):
        e = BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3), momentum=0.8,
            config=ExecutionConfig(executor=ThreadedExecutor(workers), mbs=4),
        )
        losses = [e.train_batch(x, labels, lr=0.05) for _ in range(3)]
        runs.append((losses, e.params.copy()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].allclose(runs[1][1], atol=0)
