"""LSTM cell kernels — Equations (1)-(6) of the paper.

Weight layout: one fused matrix ``W`` of shape ``(I + H, 4H)`` per
layer/direction with gate order ``[i, f, g(c̃), o]`` and bias ``b`` of
shape ``(4H,)``.  The fused layout turns the four gate products of
Eqs. (1)-(4) into a single GEMM — the same optimisation the paper's
implementation (and cuDNN/oneDNN) applies.  Rows ``[:I]`` multiply the
input ``X_t``, rows ``[I:]`` multiply the recurrent state ``H_{t-1}``,
which avoids materialising the ``[X_t, H_{t-1}]`` concatenation.

The forward has one body, :func:`lstm_forward_chain`: ``K`` steps of a
chain, or of the two directions' chains stacked, in one call.  A graph's
forward tile is one call of it; the per-step kernels are one-step calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import activations
from repro.kernels.activations import (
    activate_gates_, at_shape, dsigmoid, dtanh, gate_rows, sigmoid, tanh,
)


@dataclass
class LSTMCache:
    """What one step's backward reads: the operands the step read and its
    cache slot."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    acts: np.ndarray  # (5, B, H): i, f, g, o, tanh(C_t)


def lstm_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update: a one-step :func:`lstm_forward_chain` fed the
    input projection ``x @ W[:I]``.

    Parameters: ``x (B, I)``, ``h_prev (B, H)``, ``c_prev (B, H)``,
    ``W (I+H, 4H)``, ``b (4H,)``.  Returns ``(h, c, cache)``; with
    ``need_cache=False`` (inference) the gates are activated in place and the
    cache is ``None``; ``out``, an ``(h, c)`` pair, is where ``h`` and ``c``
    are written.
    """
    h, c = (np.empty_like(h_prev), np.empty_like(h_prev)) if out is None else out
    acts = np.empty((1,) + h.shape[:-2] + (5,) + h.shape[-2:], h.dtype) if need_cache else None
    zx = x @ W[..., : W.shape[-2] - h_prev.shape[-1], :]
    lstm_forward_chain(zx[None], h_prev, c_prev, W, b, h[None], c[None], acts)
    return h, c, None if acts is None else LSTMCache(x, h_prev, c_prev, acts[0])


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
    dz, dh_prev, dc_prev = lstm_backward_step_proj(dh, dc_in, cache.acts, cache.c_prev, W)
    dx = lstm_proj_backward(cache.x, cache.h_prev, dz, W, dW, db)
    return dx, dh_prev, dc_prev


def lstm_forward_chain(
    zx: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    acts: Optional[np.ndarray] = None,
) -> None:
    """Steps ``k = 0..K-1`` of an LSTM chain: the cell's one forward body.

    ``zx (K, ..., B, 4H)`` holds the steps' input projections, ``h_prev``/
    ``c_prev`` the state before step 0; step ``k`` writes ``h[k]``, ``c[k]``
    and, given ``acts (K, ..., 5, B, H)``, the cache fields ``i, f, g, o,
    tc`` of ``acts[k]``.  A leading chain axis stacks chains: NumPy runs a
    stack slice by slice with the 2-D product's BLAS call, so the bits do
    not depend on pairing or on where a chain is cut.  Set up once: the
    recurrent rows of ``W``, the buffers, the bias and activation rows at
    full shape.  A step is one ``np.matmul`` into ``z`` outside the turn and
    a stretch under it that writes only through ``out=``: the biased ``z``
    (activated in place when no cache is kept) is copied gate-major, into
    the cache's contiguous fields or a buffer, because a ufunc on a
    ``4H``-strided gate view buffers a fresh copy of it (docs/PERF.md).
    """
    hidden = h.shape[-1]
    W_h = W[..., W.shape[-2] - hidden :, :]
    z = np.empty(h.shape[1:-1] + (4 * hidden,), h.dtype)
    z4 = z.reshape(z.shape[:-1] + (4, hidden))
    z_gates = z4.transpose((z4.ndim - 2, *range(z4.ndim - 2), z4.ndim - 1))  # (4, ..., B, H)
    scratch = np.empty(h.shape[1:], h.dtype)
    bias = at_shape(b, z.shape)
    fields = None if acts is None else acts.swapaxes(-3, 1)  # (K, 5, ..., B, H)
    buf = None
    if acts is None:
        rows = tuple(at_shape(row, z.shape) for row in gate_rows("ssts", hidden, z.dtype))
        gates = np.empty(z_gates.shape, z.dtype)
        (i, f, g, o), tc = gates, scratch
    elif not fields[0, 0].flags.c_contiguous:
        buf = np.empty(fields.shape[1:], h.dtype)  # a pair's fields interleave its chains
    for k in range(len(zx)):
        np.matmul(h_prev, W_h, out=z)
        h_k, c_k = h[k], c[k]
        with activations.pointwise_turn:
            z += zx[k]
            z += bias
            if acts is None:
                activate_gates_(z, "ssts", rows)
                np.copyto(gates, z_gates)
            else:
                i, f, g, o, tc = slot = fields[k] if buf is None else buf
                np.copyto(slot[:4], z_gates)
                sigmoid(slot[:2], slot[:2])  # i and f
                tanh(g, g)
                sigmoid(o, o)
            np.multiply(f, c_prev, out=c_k)
            c_k += np.multiply(i, g, out=scratch)
            np.tanh(c_k, out=tc)
            np.multiply(o, tc, out=h_k)
            if buf is not None:
                np.copyto(fields[k], buf)
        h_prev, c_prev = h_k, c_k


def lstm_backward_step_proj(
    dh: np.ndarray,
    dc_in: np.ndarray,
    acts: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step, from its cache slot ``acts (5,
    B, H)`` and the ``c_prev`` it read: emits ``dz`` instead of ``dx``.

    Keeps what the recurrence waits for: the pointwise work and ``dh_prev =
    dZ·W_h^T``, computed weights-left, ``(W_h·dZ^T)^T``: the operand order
    BLAS is fast at on a few rows, and a transposed view of the product.
    Every other product of ``dz`` (``dW``, ``db``, ``dX``) is the per-block
    :func:`lstm_proj_backward`'s.  Returns ``(dz, dh_prev, dc_prev)``.
    """
    i, f, g, o, tc = acts
    hidden = dh.shape[1]
    input_size = W.shape[0] - hidden
    with activations.pointwise_turn:
        do = dh * tc
        dc = dc_in + dh * o * dtanh(tc)
        dz = np.empty((dh.shape[0], 4 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dc * g * dsigmoid(i)
        dz[:, hidden : 2 * hidden] = dc * c_prev * dsigmoid(f)
        dz[:, 2 * hidden : 3 * hidden] = dc * i * dtanh(g)
        dz[:, 3 * hidden :] = do * dsigmoid(o)
        dc_prev = dc * f
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

