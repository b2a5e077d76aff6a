"""LSTM cell kernels — Equations (1)-(6) of the paper.

Weight layout: one fused matrix ``W`` of shape ``(I + H, 4H)`` per
layer/direction with gate order ``[i, f, g(c̃), o]`` and bias ``b`` of
shape ``(4H,)``.  The fused layout turns the four gate products of
Eqs. (1)-(4) into a single GEMM — the same optimisation the paper's
implementation (and cuDNN/oneDNN) applies.  Rows ``[:I]`` multiply the
input ``X_t``, rows ``[I:]`` multiply the recurrent state ``H_{t-1}``,
which avoids materialising the ``[X_t, H_{t-1}]`` concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import activations
from repro.kernels.activations import activate_gates_, dsigmoid, dtanh, sigmoid, tanh


@dataclass
class LSTMCache:
    """Forward activations retained for the backward pass."""

    x: Optional[np.ndarray]  # None on the fused-projection path (dx via proj_bwd)
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tc: np.ndarray  # tanh(C_t)


def _activate(z: np.ndarray, hidden: int, need_cache: bool):
    """Gates ``(i, f, g, o)`` of the biased pre-activation ``z (B, 4H)``; the
    caller holds the turn.

    What the caller retains picks the layout.  A cache for the backward gets
    contiguous per-gate arrays, which it reads faster than views with a
    ``4H`` row stride (docs/PERF.md).  With nothing retained ``z`` is
    activated in place (:func:`~repro.kernels.activations.activate_gates_`)
    and the gates are views of it, no per-gate temporaries.  Bitwise the
    same values either way, element by element.
    """
    if need_cache:
        return (
            sigmoid(z[..., :hidden]),
            sigmoid(z[..., hidden : 2 * hidden]),
            tanh(z[..., 2 * hidden : 3 * hidden]),
            sigmoid(z[..., 3 * hidden :]),
        )
    activate_gates_(z, "ssts")
    return (
        z[..., :hidden],
        z[..., hidden : 2 * hidden],
        z[..., 2 * hidden : 3 * hidden],
        z[..., 3 * hidden :],
    )


def lstm_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update.

    Parameters: ``x (B, I)``, ``h_prev (B, H)``, ``c_prev (B, H)``,
    ``W (I+H, 4H)``, ``b (4H,)``.  Returns ``(h, c, cache)``; with
    ``need_cache=False`` (inference) the gates are activated in place and the
    cache is ``None``; ``out``, an ``(h, c)`` pair, is where ``h`` and ``c``
    are written.  This is :func:`lstm_forward_step_proj` fed the input
    projection of a block of one timestep, so the two agree bitwise whatever
    BLAS does.
    """
    h, c, cache = lstm_forward_step_proj(
        x @ W[..., : W.shape[-2] - h_prev.shape[-1], :], h_prev, c_prev, W, b, need_cache, out
    )
    if cache is not None:
        cache.x = x
    return h, c, cache


def lstm_backward_step(
    dh: np.ndarray,
    dc_in: np.ndarray,
    cache: LSTMCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of one LSTM cell update.

    ``dh``/``dc_in`` are gradients w.r.t. this cell's outputs ``H_t``/``C_t``.
    Accumulates ``dW``/``db`` *in place* (the inout weight-gradient region of
    the B-Par task) and returns ``(dx, dh_prev, dc_prev)``.  This is
    :func:`lstm_backward_step_proj`, then :func:`lstm_proj_backward` over a
    block of one timestep: the calls a hoisted layer makes at ``proj_block=1``.
    """
    dz, dh_prev, dc_prev = lstm_backward_step_proj(dh, dc_in, cache, W)
    dx = lstm_proj_backward(cache.x, cache.h_prev, dz, W, dW, db)
    return dx, dh_prev, dc_prev


def lstm_forward_step_proj(
    zx: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update from a precomputed input projection.

    ``zx (B, 4H)`` is this timestep's slice of the hoisted ``X @ W[:I]``
    GEMM; only the recurrent product remains on the critical path.  The one
    forward body of the cell: :func:`lstm_forward_step` calls it with its own
    ``x @ W[:I]``.  ``need_cache`` as there; the cache's ``x`` is ``None``
    (the hoisted backward reads the inputs by block).  Both cells' forward
    bodies slice ``W[..., rows, cols]``, so they also run a paired step, every
    operand stacked on a leading axis of two (``_fn_cell_fwd_paired``).
    ``out`` as there: the same ufuncs write into it, so the bits do not
    depend on where ``h`` and ``c`` land.
    """
    h_out, c_out = (None, None) if out is None else out
    hidden = h_prev.shape[-1]
    input_size = W.shape[-2] - hidden
    z = h_prev @ W[..., input_size:, :]
    with activations.pointwise_turn:
        z += zx
        z += b
        i, f, g, o = _activate(z, hidden, need_cache)
        c = np.multiply(f, c_prev, out=c_out)
        c += i * g
        tc = tanh(c)
        h = np.multiply(o, tc, out=h_out)
    if not need_cache:
        return h, c, None
    return h, c, LSTMCache(x=None, h_prev=h_prev, c_prev=c_prev, i=i, f=f, g=g, o=o, tc=tc)


def lstm_backward_step_proj(
    dh: np.ndarray,
    dc_in: np.ndarray,
    cache: LSTMCache,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step: emits ``dz`` instead of ``dx``.

    Keeps what the recurrence waits for: the pointwise work and ``dh_prev =
    dZ·W_h^T``, computed weights-left, ``(W_h·dZ^T)^T``: the operand order
    BLAS is fast at on a few rows, and a transposed view of the product.
    Every other product of ``dz`` (``dW``, ``db``, ``dX``) is the per-block
    :func:`lstm_proj_backward`'s.  Returns ``(dz, dh_prev, dc_prev)``.
    """
    hidden = cache.h_prev.shape[1]
    input_size = W.shape[0] - hidden
    with activations.pointwise_turn:
        do = dh * cache.tc
        dc = dc_in + dh * cache.o * dtanh(cache.tc)
        dz = np.empty((dh.shape[0], 4 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dc * cache.g * dsigmoid(cache.i)
        dz[:, hidden : 2 * hidden] = dc * cache.c_prev * dsigmoid(cache.f)
        dz[:, 2 * hidden : 3 * hidden] = dc * cache.i * dtanh(cache.g)
        dz[:, 3 * hidden :] = do * dsigmoid(cache.o)
        dc_prev = dc * cache.f
    dh_prev = (W[input_size:] @ dz.T).T
    return dz, dh_prev, dc_prev


def lstm_proj_backward(
    X: np.ndarray,
    H_prev: np.ndarray,
    dZ: np.ndarray,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    need_dx: bool = True,
) -> Optional[np.ndarray]:
    """Hoisted backward of a block of timesteps, their rows stacked.

    ``X (K·B, I)``, ``H_prev (K·B, H)`` and ``dZ (K·B, 4H)`` hold the block's
    ``K`` steps one below the other.  Accumulates the whole weight-gradient
    panel in one GEMM, ``dW += [X | H_prev]^T·dZ``, and ``db += ΣdZ``;
    returns ``dX = dZ·W_x^T`` (``None`` unless ``need_dx``).  The
    panel-sized accumulations run outside the turn with their GEMMs.  A
    block of one step is :func:`lstm_backward_step`'s body, so at
    ``proj_block=1`` the hoisted gradients are the per-step graph's bits;
    over longer blocks one reduction sums the rows the per-step kernel adds
    as ``K`` partial products, equal to rounding.
    """
    dW += np.concatenate((X, H_prev), axis=1).T @ dZ
    db += dZ.sum(axis=0)
    return dZ @ W[: X.shape[1]].T if need_dx else None

