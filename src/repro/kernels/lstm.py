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


def lstm_param_shapes(input_size: int, hidden_size: int) -> Tuple[Tuple[int, int], Tuple[int]]:
    """Shapes of the fused weight matrix and bias: ((I+H, 4H), (4H,))."""
    return (input_size + hidden_size, 4 * hidden_size), (4 * hidden_size,)


def lstm_gate_gemm_flops(
    batch: int, input_size: int, hidden_size: int, n_gates: Optional[int] = None
) -> float:
    """GEMM flops of ``n_gates`` gate pre-activations (default: all four).

    Conservation contract of the fusion pass: the stacked 4-gate GEMM does
    exactly the arithmetic of the four per-gate GEMMs, so
    ``4 × lstm_gate_gemm_flops(..., n_gates=1) == lstm_gate_gemm_flops(...)``
    holds *exactly* (each factor is a small integer product — no rounding).
    """
    g = 4 if n_gates is None else n_gates
    return 2.0 * batch * (input_size + hidden_size) * g * hidden_size


def lstm_fwd_pointwise_flops(batch: int, hidden_size: int) -> float:
    """Elementwise flops of one forward cell update (activations + Eq. 5/6)."""
    return 14.0 * batch * hidden_size


def lstm_bwd_pointwise_flops(batch: int, hidden_size: int) -> float:
    """Elementwise flops of one backward cell update."""
    return 30.0 * batch * hidden_size


def lstm_fwd_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Floating-point operations of one forward cell update."""
    return lstm_gate_gemm_flops(batch, input_size, hidden_size) + lstm_fwd_pointwise_flops(
        batch, hidden_size
    )


def lstm_bwd_data_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Data-gradient GEMMs of one backward cell update: ``dx`` and ``dh_prev``."""
    return 2.0 * batch * (input_size + hidden_size) * 4 * hidden_size


def lstm_bwd_weight_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Weight-gradient GEMMs of one backward cell update: ``X^T·dZ`` and ``H^T·dZ``."""
    return 2.0 * batch * (input_size + hidden_size) * 4 * hidden_size


def lstm_bwd_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """Floating-point operations of one backward cell update (≈2× forward)."""
    return (
        lstm_bwd_data_flops(batch, input_size, hidden_size)
        + lstm_bwd_weight_flops(batch, input_size, hidden_size)
        + lstm_bwd_pointwise_flops(batch, hidden_size)
    )


def lstm_proj_flops(batch: int, input_size: int, hidden_size: int) -> float:
    """One timestep's share of the hoisted input projection ``X_t @ W_x``."""
    return 2.0 * batch * input_size * 4 * hidden_size


def lstm_fwd_step_proj_flops(batch: int, hidden_size: int) -> float:
    """Forward flops of the shrunken cell step (recurrent GEMM + elementwise)."""
    return 2.0 * batch * hidden_size * 4 * hidden_size + 14.0 * batch * hidden_size


def lstm_bwd_step_proj_flops(batch: int, hidden_size: int) -> float:
    """Backward flops of the shrunken cell step (the ``dh_prev`` GEMM + elementwise)."""
    return 2.0 * batch * hidden_size * 4 * hidden_size + 30.0 * batch * hidden_size


def lstm_proj_bwd_flops(
    batch: int, input_size: int, hidden_size: int, need_dx: bool = True
) -> float:
    """One timestep's share of the hoisted backward: the whole weight-gradient
    panel ``[X | H_prev]^T·dZ`` (+ ``dX = dZ·W_x^T``)."""
    panel = 2.0 * batch * (input_size + hidden_size) * 4 * hidden_size
    return panel + (2.0 * batch * input_size * 4 * hidden_size if need_dx else 0.0)


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
    cache is ``None``.
    """
    input_size = x.shape[1]
    hidden = h_prev.shape[1]
    z = x @ W[:input_size]
    zh = h_prev @ W[input_size:]
    with activations.pointwise_turn:
        z += zh
        z += b
        i, f, g, o = _activate(z, hidden, need_cache)
        c = f * c_prev
        c += i * g
        tc = tanh(c)
        h = o * tc
    if not need_cache:
        return h, c, None
    return h, c, LSTMCache(x=x, h_prev=h_prev, c_prev=c_prev, i=i, f=f, g=g, o=o, tc=tc)


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
    hidden = cache.h_prev.shape[1]
    batch = dh.shape[0]

    with activations.pointwise_turn:
        do = dh * cache.tc
        dc = dc_in + dh * cache.o * dtanh(cache.tc)
        dz = np.empty((batch, 4 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dc * cache.g * dsigmoid(cache.i)
        dz[:, hidden : 2 * hidden] = dc * cache.c_prev * dsigmoid(cache.f)
        dz[:, 2 * hidden : 3 * hidden] = dc * cache.i * dtanh(cache.g)
        dz[:, 3 * hidden :] = do * dsigmoid(cache.o)
        dc_prev = dc * cache.f
        db += dz.sum(axis=0)

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
    GEMM; only the recurrent product remains on the critical path.  Result
    is bit-identical to :func:`lstm_forward_step`: the pre-activation is
    assembled as ``(H_{t-1}·W_h) + zx + b``, and IEEE addition commutes, so
    it matches the oracle's ``(X_t·W_x) + H_{t-1}·W_h + b`` exactly.
    ``need_cache`` as in :func:`lstm_forward_step`.
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
    hidden = cache.h_prev.shape[1]
    input_size = W.shape[0] - hidden
    batch = dh.shape[0]

    with activations.pointwise_turn:
        do = dh * cache.tc
        dc = dc_in + dh * cache.o * dtanh(cache.tc)
        dz = np.empty((batch, 4 * hidden), dtype=dh.dtype)
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
    returns ``dX = dZ·W_x^T`` (``None`` unless ``need_dx``).  Sums over the
    block's rows in one reduction where the per-step kernel adds ``K``
    partial products: equal to rounding, not bitwise.
    """
    dW += np.concatenate((X, H_prev), axis=1).T @ dZ
    db += dZ.sum(axis=0)
    return dZ @ W[: X.shape[1]].T if need_dx else None


# -- the fusion="off" reference kernels (docs/PERF.md §fusion) --------------------
#
# One GEMM pair *per gate* against the gate's column block of the stacked
# weight matrix, activations applied in a separate pass per gate.  Forward is
# bitwise identical to the stacked kernel (BLAS computes each output-column
# block of a GEMM independently, so a column slice of ``X·W`` equals
# ``X·W[:, cols]`` exactly); backward splits the ``dx``/``dh_prev`` reductions
# across gates, which reassociates the K-dimension sum — gradcheck-exact, not
# bitwise.


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
