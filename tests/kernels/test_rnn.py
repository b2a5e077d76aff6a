"""Unit tests for the vanilla (Elman) RNN cell kernels."""

import dataclasses

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.kernels.initializers import glorot_uniform
from repro.kernels.rnn import rnn_backward_step, rnn_forward_step
from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.models.spec import BRNNSpec

B, I, H = 4, 3, 5
SPEC = BRNNSpec(cell="rnn", input_size=I, hidden_size=H, num_layers=1)


def setup_cell(rng, dtype=np.float64):
    (w_shape, b_shape) = SPEC.cell_param_shapes(0)
    W = glorot_uniform(rng, w_shape, dtype)
    b = rng.standard_normal(b_shape).astype(dtype) * 0.1
    x = rng.standard_normal((B, I)).astype(dtype)
    h0 = rng.standard_normal((B, H)).astype(dtype) * 0.5
    return x, h0, W, b


def test_param_shapes():
    assert SPEC.cell_param_shapes(0) == ((I + H, H), (H,))


def test_forward_matches_equation(rng):
    x, h0, W, b = setup_cell(rng)
    h, cache = rnn_forward_step(x, h0, W, b)
    expected = np.tanh(np.concatenate([x, h0], axis=1) @ W + b)
    assert np.allclose(h, expected, atol=1e-12)
    assert np.all(np.abs(h) < 1)


def test_backward_numerical(rng):
    x, h0, W, b = setup_cell(rng)
    h, cache = rnn_forward_step(x, h0, W, b)
    dh = rng.standard_normal((B, H))
    dW, db = np.zeros_like(W), np.zeros_like(b)
    dx, dh_prev = rnn_backward_step(dh, cache, W, dW, db)

    def loss(x_, h0_, W_, b_):
        h_, _ = rnn_forward_step(x_, h0_, W_, b_)
        return float(np.sum(h_ * dh))

    eps = 1e-6
    for arr, grad in ((x, dx), (h0, dh_prev), (W, dW), (b, db)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        idx = np.random.default_rng(0).choice(flat.size, size=min(6, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss(x, h0, W, b)
            flat[j] = orig - eps
            lm = loss(x, h0, W, b)
            flat[j] = orig
            assert (lp - lm) / (2 * eps) == pytest.approx(gflat[j], rel=1e-4, abs=1e-8)


def test_backward_accumulates(rng):
    x, h0, W, b = setup_cell(rng)
    _, cache = rnn_forward_step(x, h0, W, b)
    dh = np.ones((B, H))
    dW, db = np.zeros_like(W), np.zeros_like(b)
    rnn_backward_step(dh, cache, W, dW, db)
    once = dW.copy()
    rnn_backward_step(dh, cache, W, dW, db)
    assert np.allclose(dW, 2 * once)


def test_flops_cheapest_cell():
    rnn, gru, lstm = (
        cell_fwd_flops(dataclasses.replace(SPEC, cell=cell), B, 0)
        for cell in ("rnn", "gru", "lstm")
    )
    assert rnn < gru < lstm
    assert cell_bwd_flops(SPEC, B, 0) > rnn


def test_full_pipeline_bitwise_vs_oracle(rng):
    """B-Par with the basic RNN cell == sequential oracle (all schedulers)."""
    from repro.core import BParEngine
    from repro.models.params import BRNNParams
    from repro.models.reference import reference_loss_and_grads
    from repro.models.spec import BRNNSpec
    from repro.runtime import ThreadedExecutor

    spec = BRNNSpec(cell="rnn", input_size=6, hidden_size=5, num_layers=3,
                    merge_mode="concat", head="many_to_one", num_classes=4)
    x = rng.standard_normal((5, 8, 6)).astype(np.float32)
    labels = np.random.default_rng(1).integers(0, 4, size=8)
    params = BRNNParams.initialize(spec, seed=3)
    ref_loss, ref_logits, ref_grads = reference_loss_and_grads(spec, params.copy(), x, labels)
    engine = BParEngine(
        spec, params=params.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    loss, logits, grads = engine.loss_and_grads(x, labels)
    assert loss == ref_loss
    assert np.array_equal(logits, ref_logits)
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(grads.arrays(), ref_grads.arrays()))


def test_rnn_spec_param_count():
    from repro.models.spec import BRNNSpec

    spec = BRNNSpec(cell="rnn", input_size=10, hidden_size=8, num_layers=2,
                    merge_mode="sum", num_classes=3)
    # per layer/direction: (10+8)*8 + 8 then (8+8)*8 + 8; head 8*3+3
    expected = 2 * ((18 * 8 + 8) + (16 * 8 + 8)) + (8 * 3 + 3)
    assert spec.num_parameters() == expected


def test_rnn_gradcheck():
    from repro.models.gradcheck import check_gradients
    from repro.models.spec import BRNNSpec

    spec = BRNNSpec(cell="rnn", input_size=5, hidden_size=4, num_layers=2,
                    merge_mode="avg", head="many_to_many", num_classes=3,
                    dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 2, 5))
    labels = rng.integers(0, 3, size=(4, 2))
    errors = check_gradients(spec, x, labels, samples_per_array=5)
    assert max(errors.values()) < 1e-3
