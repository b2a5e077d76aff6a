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

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (self.x, self.h_prev, self.c_prev, self.i, self.f, self.g, self.o, self.tc)
            if a is not None
        )


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
            sigmoid(z[:, :hidden]),
            sigmoid(z[:, hidden : 2 * hidden]),
            tanh(z[:, 2 * hidden : 3 * hidden]),
            sigmoid(z[:, 3 * hidden :]),
        )
    activate_gates_(z, "ssts")
    return (
        z[:, :hidden],
        z[:, hidden : 2 * hidden],
        z[:, 2 * hidden : 3 * hidden],
        z[:, 3 * hidden :],
    )


def lstm_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update.

    Parameters: ``x (B, I)``, ``h_prev (B, H)``, ``c_prev (B, H)``,
    ``W (I+H, 4H)``, ``b (4H,)``.  Returns ``(h, c, cache)``; with
    ``need_cache=False`` (inference) the gates are activated in place and the
    cache is ``None``.  This is :func:`lstm_forward_step_proj` fed the input
    projection of a block of one timestep, so the two agree bitwise whatever
    BLAS does.
    """
    h, c, cache = lstm_forward_step_proj(
        x @ W[: x.shape[1]], h_prev, c_prev, W, b, need_cache
    )
    if cache is not None:
        cache.x = x
    return h, c, cache


def _backward_pointwise(
    dh: np.ndarray, dc_in: np.ndarray, cache: LSTMCache, db: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The backward's pointwise stretch: ``(dz (B, 4H), dc_prev)``.  Adds
    ``Σdz`` to ``db`` when the caller accumulates the bias gradient per step
    (a few-row reduction, so it rides in the same turn)."""
    hidden = cache.h_prev.shape[1]
    with activations.pointwise_turn:
        do = dh * cache.tc
        dc = dc_in + dh * cache.o * dtanh(cache.tc)
        dz = np.empty((dh.shape[0], 4 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dc * cache.g * dsigmoid(cache.i)
        dz[:, hidden : 2 * hidden] = dc * cache.c_prev * dsigmoid(cache.f)
        dz[:, 2 * hidden : 3 * hidden] = dc * cache.i * dtanh(cache.g)
        dz[:, 3 * hidden :] = do * dsigmoid(cache.o)
        dc_prev = dc * cache.f
        if db is not None:
            db += dz.sum(axis=0)
    return dz, dc_prev


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
    the B-Par task) and returns ``(dx, dh_prev, dc_prev)``.  ``dh_prev`` is
    computed weights-left, ``(W_h·dZ^T)^T``: the operand order BLAS is fast
    at on a few rows, and a transposed view of the product.
    """
    input_size = cache.x.shape[1]
    dz, dc_prev = _backward_pointwise(dh, dc_in, cache, db)

    # the panel-sized accumulations stay outside the turn with their GEMMs:
    # one long ufunc each, which scales with the workers as a GEMM does
    dx = dz @ W[:input_size].T
    dh_prev = (W[input_size:] @ dz.T).T
    dW[:input_size] += cache.x.T @ dz
    dW[input_size:] += cache.h_prev.T @ dz
    return dx, dh_prev, dc_prev


def lstm_forward_step_proj(
    zx: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update from a precomputed input projection.

    ``zx (B, 4H)`` is this timestep's slice of the hoisted ``X @ W[:I]``
    GEMM; only the recurrent product remains on the critical path.  The one
    forward body of the cell: :func:`lstm_forward_step` calls it with its own
    ``x @ W[:I]``.  ``need_cache`` as there; the cache's ``x`` is ``None``
    (the hoisted backward reads the inputs by block).
    """
    hidden = h_prev.shape[1]
    input_size = W.shape[0] - hidden
    z = h_prev @ W[input_size:]
    with activations.pointwise_turn:
        z += zx
        z += b
        i, f, g, o = _activate(z, hidden, need_cache)
        c = f * c_prev
        c += i * g
        tc = tanh(c)
        h = o * tc
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
    dZ·W_h^T``, computed weights-left as in :func:`lstm_backward_step`.
    Every other product of ``dz`` (``dW``, ``db``, ``dX``) is hoisted into
    the per-block :func:`lstm_proj_backward`.  Returns ``(dz, dh_prev,
    dc_prev)``.
    """
    input_size = W.shape[0] - cache.h_prev.shape[1]
    dz, dc_prev = _backward_pointwise(dh, dc_in, cache, None)
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
    returns ``dX = dZ·W_x^T`` (``None`` unless ``need_dx``).  Sums over the
    block's rows in one reduction where the per-step kernel adds ``K``
    partial products: equal to rounding, not bitwise.  Nothing here knows
    the gate count, so the basic RNN's blocks call it too.
    """
    dW += np.concatenate((X, H_prev), axis=1).T @ dZ
    db += dZ.sum(axis=0)
    return dZ @ W[: X.shape[1]].T if need_dx else None


# -- the fusion="off" reference kernels (docs/PERF.md §fusion) --------------------
#
# One GEMM pair *per gate* against the gate's column block of the stacked
# weight matrix, activations applied in a separate pass per gate.  Forward is
# bitwise the stacked kernel's on the shapes tests/core/test_fusion.py and
# test_fused_projection.py pin; not a BLAS guarantee (a column slice of
# ``X·W`` need not equal ``X·W[:, cols]``: docs/TESTING.md has the shapes where
# it does not).  Backward splits the ``dx``/``dh_prev`` reductions across
# gates, which reassociates the K-dimension sum — gradcheck-exact, not bitwise.


def lstm_forward_step_unfused(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[LSTMCache]]:
    """One LSTM cell update via four per-gate GEMM pairs (fusion="off")."""
    input_size = x.shape[1]
    hidden = h_prev.shape[1]
    blocks = [slice(g4 * hidden, (g4 + 1) * hidden) for g4 in range(4)]
    gates = [x @ W[:input_size, cols] for cols in blocks]
    recurrent = [h_prev @ W[input_size:, cols] for cols in blocks]
    with activations.pointwise_turn:
        for zg, zh, cols in zip(gates, recurrent, blocks):
            zg += zh
            zg += b[cols]
        i = sigmoid(gates[0])
        f = sigmoid(gates[1])
        g = tanh(gates[2])
        o = sigmoid(gates[3])
        c = f * c_prev
        c += i * g
        tc = tanh(c)
        h = o * tc
    if not need_cache:
        return h, c, None
    return h, c, LSTMCache(x=x, h_prev=h_prev, c_prev=c_prev, i=i, f=f, g=g, o=o, tc=tc)


def lstm_backward_step_unfused(
    dh: np.ndarray,
    dc_in: np.ndarray,
    cache: LSTMCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of one cell update via per-gate GEMMs (fusion="off").

    The per-gate ``dW``/``db`` blocks are bitwise identical to the stacked
    kernel's (independent output columns / slice sums); ``dx``/``dh_prev``
    accumulate four per-gate products, reassociating the 4H-wide reduction
    — gradcheck-exact against the stacked kernel, not bitwise.
    """
    input_size = cache.x.shape[1]
    hidden = cache.h_prev.shape[1]

    with activations.pointwise_turn:
        do = dh * cache.tc
        dc = dc_in + dh * cache.o * dtanh(cache.tc)
        dzs = (
            dc * cache.g * dsigmoid(cache.i),
            dc * cache.c_prev * dsigmoid(cache.f),
            dc * cache.i * dtanh(cache.g),
            do * dsigmoid(cache.o),
        )
        dc_prev = dc * cache.f
        for g4, dzg in enumerate(dzs):
            db[g4 * hidden : (g4 + 1) * hidden] += dzg.sum(axis=0)

    dx = dh_prev = None
    for g4, dzg in enumerate(dzs):
        cols = slice(g4 * hidden, (g4 + 1) * hidden)
        if dx is None:
            dx = dzg @ W[:input_size, cols].T
            dh_prev = dzg @ W[input_size:, cols].T
        else:
            dx += dzg @ W[:input_size, cols].T
            dh_prev += dzg @ W[input_size:, cols].T
        dW[:input_size, cols] += cache.x.T @ dzg
        dW[input_size:, cols] += cache.h_prev.T @ dzg
    return dx, dh_prev, dc_prev
