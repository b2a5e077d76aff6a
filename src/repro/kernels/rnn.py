"""Vanilla (Elman) RNN cell kernels.

§II: "BRNNs use the basic RNN unit and its variants LSTM and GRU to carry
out their predictions."  The basic unit is a single tanh transition:

    H_t = tanh(W · [X_t, H_{t-1}] + B)

Same fused layout as the gated cells: rows ``[:I]`` multiply the input,
rows ``[I:]`` the recurrent state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import activations
from repro.kernels.activations import dtanh


def rnn_param_shapes(input_size: int, hidden_size: int) -> Tuple[Tuple[int, int], Tuple[int]]:
    """Shapes of the fused weight matrix and bias: ((I+H, H), (H,))."""
    return (input_size + hidden_size, hidden_size), (hidden_size,)


def rnn_gate_gemm_flops(
    batch: int, input_size: int, hidden_size: int, n_gates: Optional[int] = None
) -> float:
    """GEMM flops of the single tanh gate (``n_gates`` kept for symmetry)."""
    g = 1 if n_gates is None else n_gates
    return 2.0 * batch * (input_size + hidden_size) * g * hidden_size


def rnn_fwd_pointwise_flops(batch: int, hidden_size: int) -> float:
    """Elementwise flops of one forward cell update."""
    return 3.0 * batch * hidden_size


def rnn_bwd_pointwise_flops(batch: int, hidden_size: int) -> float:
    """Elementwise flops of one backward cell update."""
    return 6.0 * batch * hidden_size


def rnn_fwd_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Floating-point operations of one forward cell update."""
    return rnn_gate_gemm_flops(batch, input_size, hidden_size) + rnn_fwd_pointwise_flops(
        batch, hidden_size
    )


def rnn_bwd_data_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Data-gradient GEMMs of one backward cell update: ``dx`` and ``dh_prev``."""
    return 2.0 * batch * (input_size + hidden_size) * hidden_size


def rnn_bwd_weight_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Weight-gradient GEMMs of one backward cell update: ``X^T·da`` and ``H^T·da``."""
    return 2.0 * batch * (input_size + hidden_size) * hidden_size


def rnn_bwd_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Floating-point operations of one backward cell update (≈2× forward)."""
    return (
        rnn_bwd_data_flops(batch, input_size, hidden_size)
        + rnn_bwd_weight_flops(batch, input_size, hidden_size)
        + rnn_bwd_pointwise_flops(batch, hidden_size)
    )


def rnn_proj_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """One timestep's share of the hoisted input projection ``X_t @ W_x``."""
    return 2.0 * batch * input_size * hidden_size


def rnn_fwd_step_proj_flops(batch: int, hidden_size: int) -> float:
    """Forward flops of the shrunken cell step (recurrent GEMM + elementwise)."""
    return 2.0 * batch * hidden_size * hidden_size + 3.0 * batch * hidden_size


def rnn_bwd_step_proj_flops(batch: int, hidden_size: int) -> float:
    """Backward flops of the shrunken cell step (the ``dh_prev`` GEMM + elementwise)."""
    return 2.0 * batch * hidden_size * hidden_size + 6.0 * batch * hidden_size


def rnn_proj_bwd_flops(
    batch: int, input_size: int, hidden_size: int, need_dx: bool = True
) -> float:
    """One timestep's share of the hoisted backward: the whole weight-gradient
    panel ``[X | H_prev]^T·dZ`` (+ ``dX = dZ·W_x^T``)."""
    panel = 2.0 * batch * (input_size + hidden_size) * hidden_size
    return panel + (2.0 * batch * input_size * hidden_size if need_dx else 0.0)


@dataclass
class RNNCache:
    """Forward activations retained for the backward pass."""

    x: Optional[np.ndarray]  # None on the fused-projection path (dx via proj_bwd)
    h_prev: np.ndarray
    h: np.ndarray  # tanh output (its own derivative input)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.x, self.h_prev, self.h) if a is not None)


def rnn_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, Optional[RNNCache]]:
    """One basic-RNN cell update: ``x (B, I)``, ``h_prev (B, H)`` → ``(h, cache)``
    (the cache is ``None`` unless ``need_cache``).  The tanh runs in place on
    the fresh pre-activation either way: one gate, nothing to lay out."""
    input_size = x.shape[1]
    a = x @ W[:input_size]
    a_h = h_prev @ W[input_size:]
    with activations.pointwise_turn:
        a += a_h
        a += b
        h = np.tanh(a, out=a)
    if not need_cache:
        return h, None
    return h, RNNCache(x=x, h_prev=h_prev, h=h)


def rnn_backward_step(
    dh: np.ndarray,
    cache: RNNCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of one basic-RNN cell update.

    Accumulates ``dW``/``db`` in place; returns ``(dx, dh_prev)``, ``dh_prev``
    computed weights-left (see :func:`repro.kernels.lstm.lstm_backward_step`).
    """
    input_size = cache.x.shape[1]
    with activations.pointwise_turn:
        da = dh * dtanh(cache.h)
        db += da.sum(axis=0)
    dx = da @ W[:input_size].T
    dh_prev = (W[input_size:] @ da.T).T
    dW[:input_size] += cache.x.T @ da
    dW[input_size:] += cache.h_prev.T @ da
    return dx, dh_prev


def rnn_forward_step_proj(
    zx: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, Optional[RNNCache]]:
    """One basic-RNN cell update from a precomputed input projection ``zx (B, H)``."""
    hidden = h_prev.shape[1]
    input_size = W.shape[0] - hidden
    a = h_prev @ W[input_size:]
    with activations.pointwise_turn:
        a += zx
        a += b
        h = np.tanh(a, out=a)
    if not need_cache:
        return h, None
    return h, RNNCache(x=None, h_prev=h_prev, h=h)


def rnn_backward_step_proj(
    dh: np.ndarray,
    cache: RNNCache,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step: emits ``da`` instead of ``dx``.

    Keeps the pointwise work and ``dh_prev = da·W_h^T`` (weights-left);
    ``dW``, ``db`` and ``dX`` are the per-block :func:`rnn_proj_backward`'s.
    Returns ``(da, dh_prev)``.
    """
    hidden = cache.h_prev.shape[1]
    input_size = W.shape[0] - hidden
    with activations.pointwise_turn:
        da = dh * dtanh(cache.h)
    dh_prev = (W[input_size:] @ da.T).T
    return da, dh_prev


def rnn_proj_backward(
    X: np.ndarray,
    H_prev: np.ndarray,
    dZ: np.ndarray,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    need_dx: bool = True,
) -> Optional[np.ndarray]:
    """Hoisted backward of a block of timesteps, their rows stacked:
    ``dW += [X | H_prev]^T·dZ`` in one GEMM, ``db += ΣdZ``; returns ``dX =
    dZ·W_x^T`` (``None`` unless ``need_dx``).  See
    :func:`repro.kernels.lstm.lstm_proj_backward`."""
    dW += np.concatenate((X, H_prev), axis=1).T @ dZ
    db += dZ.sum(axis=0)
    return dZ @ W[: X.shape[1]].T if need_dx else None


# -- the fusion="off" reference kernels (docs/PERF.md §fusion) --------------------
#
# The basic RNN has a single gate, so there is nothing to unfuse: the "off"
# kernels are the stacked ones.

rnn_forward_step_unfused = rnn_forward_step
rnn_backward_step_unfused = rnn_backward_step
