"""Momentum SGD held by the caller, on the engine's gradients.

Engines update weights by plain SGD; a caller trains with momentum by
taking ``loss_and_grads`` and applying ``v ← µ·v − lr·g; W ← W + v`` to
the engine's own ``params``.  The next call rebinds into the same build
and must read the weights the caller wrote.
"""

import numpy as np

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.models.reference import reference_loss_and_grads
from repro.runtime import ThreadedExecutor
from tests.conftest import make_batch, momentum_step


def _bitwise(a: BRNNParams, b: BRNNParams) -> bool:
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


def test_momentum_bitwise_matches_reference(spec):
    p_ref = BRNNParams.initialize(spec, seed=3)
    v_ref = BRNNParams.zeros_like(spec)
    v_bpar = BRNNParams.zeros_like(spec)
    engine = BParEngine(
        spec, params=p_ref.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    for step in range(5):
        x, labels = make_batch(spec, seed=step)
        l_ref, _, g_ref = reference_loss_and_grads(spec, p_ref, x, labels)
        l_bpar, _, g_bpar = engine.loss_and_grads(x, labels)
        assert l_ref == l_bpar, f"diverged at step {step}"
        momentum_step(p_ref, v_ref, g_ref, lr=0.1)
        momentum_step(engine.params, v_bpar, g_bpar, lr=0.1)
    assert _bitwise(p_ref, engine.params)
    assert _bitwise(v_ref, v_bpar)


def test_momentum_with_mbs_deterministic(spec):
    x, labels = make_batch(spec, batch=8)
    runs = []
    for workers in (1, 4):
        e = BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3),
            config=ExecutionConfig(executor=ThreadedExecutor(workers), mbs=4),
        )
        velocity = BRNNParams.zeros_like(spec)
        losses = []
        for _ in range(3):
            loss, _, grads = e.loss_and_grads(x, labels)
            momentum_step(e.params, velocity, grads, lr=0.05, mu=0.8)
            losses.append(loss)
        runs.append((losses, e.params.copy(), velocity))
    assert runs[0][0] == runs[1][0]
    assert _bitwise(runs[0][1], runs[1][1])
    assert _bitwise(runs[0][2], runs[1][2])
