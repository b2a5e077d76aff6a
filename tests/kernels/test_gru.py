"""Unit tests for the GRU cell kernels (Eqs. 7-10)."""

import dataclasses

import numpy as np
import pytest

from repro.kernels.initializers import glorot_uniform
from repro.kernels.gru import gru_backward_step, gru_forward_step
from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.models.spec import BRNNSpec

B, I, H = 4, 3, 5
SPEC = BRNNSpec(cell="gru", input_size=I, hidden_size=H, num_layers=1)


def setup_cell(rng, dtype=np.float64):
    (w_shape, b_shape) = SPEC.cell_param_shapes(0)
    W = glorot_uniform(rng, w_shape, dtype)
    b = rng.standard_normal(b_shape).astype(dtype) * 0.1
    x = rng.standard_normal((B, I)).astype(dtype)
    h0 = rng.standard_normal((B, H)).astype(dtype) * 0.5
    return x, h0, W, b


def test_param_shapes():
    assert SPEC.cell_param_shapes(0) == ((I + H, 3 * H), (3 * H,))


def test_forward_shapes_and_gate_ranges(rng):
    x, h0, W, b = setup_cell(rng)
    h, cache = gru_forward_step(x, h0, W, b)
    assert h.shape == (B, H)
    z, r, hbar, _ = cache.acts
    assert np.all((z > 0) & (z < 1))
    assert np.all((r > 0) & (r < 1))
    assert np.all(np.abs(hbar) < 1)


def test_forward_matches_equations(rng):
    """Explicit re-evaluation of Eqs. (7)-(10)."""
    x, h0, W, b = setup_cell(rng)
    h, _ = gru_forward_step(x, h0, W, b)
    sig = lambda v: 1 / (1 + np.exp(-v))
    z = sig(np.concatenate([x, h0], 1) @ W[:, :H] + b[:H])
    r = sig(np.concatenate([x, h0], 1) @ W[:, H : 2 * H] + b[H : 2 * H])
    hbar = np.tanh(np.concatenate([x, r * h0], 1) @ W[:, 2 * H :] + b[2 * H :])
    h_ref = z * hbar + (1 - z) * h0
    assert np.allclose(h, h_ref, atol=1e-12)


def test_h_is_convex_combination(rng):
    """Eq. (10): every H_t entry lies between H̄_t and H_{t-1}."""
    x, h0, W, b = setup_cell(rng)
    h, cache = gru_forward_step(x, h0, W, b)
    hbar = cache.acts[2]
    lo = np.minimum(hbar, h0)
    hi = np.maximum(hbar, h0)
    assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


def test_backward_numerical_gradient(rng):
    x, h0, W, b = setup_cell(rng)
    h, cache = gru_forward_step(x, h0, W, b)
    dh = rng.standard_normal((B, H))
    dW, db = np.zeros_like(W), np.zeros_like(b)
    dx, dh_prev = gru_backward_step(dh, cache, W, dW, db)

    def loss(x_, h0_, W_, b_):
        h_, _ = gru_forward_step(x_, h0_, W_, b_)
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
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(gflat[j], rel=1e-4, abs=1e-7)


def test_backward_accumulates(rng):
    x, h0, W, b = setup_cell(rng)
    _, cache = gru_forward_step(x, h0, W, b)
    dh = np.ones((B, H))
    dW, db = np.zeros_like(W), np.zeros_like(b)
    gru_backward_step(dh, cache, W, dW, db)
    once = dW.copy()
    gru_backward_step(dh, cache, W, dW, db)
    assert np.allclose(dW, 2 * once)


def test_flop_counts():
    assert cell_bwd_flops(SPEC, B, 0) > cell_fwd_flops(SPEC, B, 0) > 0
    # GRU has 3 gates vs LSTM's 4: cheaper at same dims
    lstm = dataclasses.replace(SPEC, cell="lstm")
    assert cell_fwd_flops(SPEC, B, 0) < cell_fwd_flops(lstm, B, 0)


def test_float32(rng):
    x, h0, W, b = setup_cell(rng, dtype=np.float32)
    h, cache = gru_forward_step(x, h0, W, b)
    assert h.dtype == np.float32
    dW, db = np.zeros_like(W), np.zeros_like(b)
    dx, dh_prev = gru_backward_step(h, cache, W, dW, db)
    assert dx.dtype == np.float32 and dh_prev.dtype == np.float32
