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
    (the cache is ``None`` unless ``need_cache``): :func:`rnn_forward_step_proj`
    fed the input projection of a block of one timestep."""
    h, cache = rnn_forward_step_proj(x @ W[: x.shape[1]], h_prev, W, b, need_cache)
    if cache is not None:
        cache.x = x
    return h, cache


def _backward_pointwise(dh: np.ndarray, cache: RNNCache, db: Optional[np.ndarray]) -> np.ndarray:
    """The backward's pointwise stretch, ``da``; adds ``Σda`` to ``db`` when
    the caller accumulates the bias gradient per step."""
    with activations.pointwise_turn:
        da = dh * dtanh(cache.h)
        if db is not None:
            db += da.sum(axis=0)
    return da


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
    da = _backward_pointwise(dh, cache, db)
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
    """One basic-RNN cell update from a precomputed input projection ``zx (B,
    H)``: the one forward body of the cell.  The tanh runs in place on the
    fresh pre-activation whether or not a cache is kept: one gate, nothing to
    lay out."""
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
    ``dW``, ``db`` and ``dX`` are the per-block
    :func:`repro.kernels.lstm.lstm_proj_backward`'s, which knows no gate count.
    Returns ``(da, dh_prev)``.
    """
    input_size = W.shape[0] - cache.h_prev.shape[1]
    da = _backward_pointwise(dh, cache, None)
    dh_prev = (W[input_size:] @ da.T).T
    return da, dh_prev


# -- the fusion="off" reference kernels (docs/PERF.md §fusion) --------------------
#
# The basic RNN has a single gate, so there is nothing to unfuse: the "off"
# kernels are the stacked ones.

rnn_forward_step_unfused = rnn_forward_step
rnn_backward_step_unfused = rnn_backward_step
