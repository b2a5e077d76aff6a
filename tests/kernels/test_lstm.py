"""Unit tests for the LSTM cell kernels (Eqs. 1-6)."""

import numpy as np
import pytest

from repro.kernels.initializers import glorot_uniform
from repro.kernels.lstm import lstm_backward_step, lstm_forward_step
from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.models.spec import BRNNSpec

B, I, H = 4, 3, 5
SPEC = BRNNSpec(cell="lstm", input_size=I, hidden_size=H, num_layers=1)


def setup_cell(rng, dtype=np.float64):
    (w_shape, b_shape) = SPEC.cell_param_shapes(0)
    W = glorot_uniform(rng, w_shape, dtype)
    b = rng.standard_normal(b_shape).astype(dtype) * 0.1
    x = rng.standard_normal((B, I)).astype(dtype)
    h0 = rng.standard_normal((B, H)).astype(dtype) * 0.5
    c0 = rng.standard_normal((B, H)).astype(dtype) * 0.5
    return x, h0, c0, W, b


def test_param_shapes():
    assert SPEC.cell_param_shapes(0) == ((I + H, 4 * H), (4 * H,))


def test_forward_shapes_and_gate_ranges(rng):
    x, h0, c0, W, b = setup_cell(rng)
    h, c, cache = lstm_forward_step(x, h0, c0, W, b)
    assert h.shape == (B, H) and c.shape == (B, H)
    for gate in (cache.i, cache.f, cache.o):
        assert np.all((gate > 0) & (gate < 1))
    assert np.all(np.abs(cache.g) < 1)
    assert np.all(np.abs(h) < 1)  # h = o * tanh(c), both bounded


def test_forward_matches_equations(rng):
    """Explicit re-evaluation of Eqs. (1)-(6) with unfused weights."""
    x, h0, c0, W, b = setup_cell(rng)
    h, c, cache = lstm_forward_step(x, h0, c0, W, b)
    z = np.concatenate([x, h0], axis=1) @ W + b
    sig = lambda v: 1 / (1 + np.exp(-v))
    i = sig(z[:, :H])
    f = sig(z[:, H : 2 * H])
    g = np.tanh(z[:, 2 * H : 3 * H])
    o = sig(z[:, 3 * H :])
    c_ref = f * c0 + i * g
    h_ref = o * np.tanh(c_ref)
    assert np.allclose(h, h_ref, atol=1e-12)
    assert np.allclose(c, c_ref, atol=1e-12)


def test_forward_does_not_mutate_inputs(rng):
    x, h0, c0, W, b = setup_cell(rng)
    copies = [a.copy() for a in (x, h0, c0, W, b)]
    lstm_forward_step(x, h0, c0, W, b)
    for orig, cpy in zip((x, h0, c0, W, b), copies):
        assert np.array_equal(orig, cpy)


def test_backward_numerical_gradient(rng):
    x, h0, c0, W, b = setup_cell(rng)
    h, c, cache = lstm_forward_step(x, h0, c0, W, b)
    dh = rng.standard_normal((B, H))
    dc_in = rng.standard_normal((B, H))
    dW = np.zeros_like(W)
    db = np.zeros_like(b)
    dx, dh_prev, dc_prev = lstm_backward_step(dh, dc_in, cache, W, dW, db)

    def loss(x_, h0_, c0_, W_, b_):
        h_, c_, _ = lstm_forward_step(x_, h0_, c0_, W_, b_)
        return float(np.sum(h_ * dh) + np.sum(c_ * dc_in))

    eps = 1e-6
    for arr, grad in ((x, dx), (h0, dh_prev), (c0, dc_prev), (W, dW), (b, db)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        idx = np.random.default_rng(0).choice(flat.size, size=min(6, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss(x, h0, c0, W, b)
            flat[j] = orig - eps
            lm = loss(x, h0, c0, W, b)
            flat[j] = orig
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(gflat[j], rel=1e-4, abs=1e-7)


def test_backward_accumulates_weight_grads(rng):
    x, h0, c0, W, b = setup_cell(rng)
    _, _, cache = lstm_forward_step(x, h0, c0, W, b)
    dh = np.ones((B, H))
    dc = np.zeros((B, H))
    dW = np.zeros_like(W)
    db = np.zeros_like(b)
    lstm_backward_step(dh, dc, cache, W, dW, db)
    dW_once = dW.copy()
    lstm_backward_step(dh, dc, cache, W, dW, db)
    assert np.allclose(dW, 2 * dW_once)


def test_float32_pipeline(rng):
    x, h0, c0, W, b = setup_cell(rng, dtype=np.float32)
    h, c, cache = lstm_forward_step(x, h0, c0, W, b)
    assert h.dtype == np.float32 and c.dtype == np.float32
    dW, db = np.zeros_like(W), np.zeros_like(b)
    dx, dh_prev, dc_prev = lstm_backward_step(h, c, cache, W, dW, db)
    assert dx.dtype == np.float32


def test_flop_counts_positive_and_ordered():
    assert cell_bwd_flops(SPEC, B, 0) > cell_fwd_flops(SPEC, B, 0) > 0
    assert cell_fwd_flops(SPEC, 2 * B, 0) == pytest.approx(2 * cell_fwd_flops(SPEC, B, 0), rel=0.01)


def test_cache_nbytes(rng):
    x, h0, c0, W, b = setup_cell(rng, dtype=np.float32)
    _, _, cache = lstm_forward_step(x, h0, c0, W, b)
    expected = x.nbytes + h0.nbytes + c0.nbytes + 5 * (B * H * 4)
    assert cache.nbytes() == expected
