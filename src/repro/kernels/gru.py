"""GRU cell kernels — Equations (7)-(10) of the paper.

Weight layout: one fused matrix ``W`` of shape ``(I + H, 3H)`` per
layer/direction with gate order ``[z, r, h̄]`` and bias ``b (3H,)``.
The update/reset gates fuse into one GEMM; the candidate ``H̄_t`` needs a
separate recurrent product because Eq. (9) applies the reset gate to
``H_{t-1}`` *before* the matrix multiply (``[X_t, R_t ⊙ H_{t-1}]``).

The forward has one body, :func:`gru_forward_chain`: ``K`` steps of a
chain, or of the two directions' chains stacked, in one call.  A graph's
forward tile is one call of it; the per-step kernels are one-step calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import activations
from repro.kernels.activations import (
    activate_gates_, at_shape, dsigmoid, dtanh, gate_rows, sigmoid,
)


@dataclass
class GRUCache:
    """What one step's backward reads: the operands the step read and its
    cache slot."""

    x: np.ndarray
    h_prev: np.ndarray
    acts: np.ndarray  # (4, B, H): z, r, hbar, R_t ⊙ H_{t-1}


def gru_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update, a one-step :func:`gru_forward_chain` fed the input
    projection ``x @ W[:I]``: ``x (B, I)``, ``h_prev (B, H)`` → ``(h,
    cache)``; with ``need_cache=False`` (inference) the gates are activated in
    place and the cache is ``None``; ``h`` is written into ``out`` when given.
    """
    h = np.empty_like(h_prev) if out is None else out
    acts = np.empty((1,) + h.shape[:-2] + (4,) + h.shape[-2:], h.dtype) if need_cache else None
    zx = x @ W[..., : W.shape[-2] - h_prev.shape[-1], :]
    gru_forward_chain(zx[None], h_prev, W, b, h[None], acts)
    return h, None if acts is None else GRUCache(x, h_prev, acts[0])


def gru_backward_step(
    dh: np.ndarray,
    cache: GRUCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of one GRU cell update.

    Accumulates ``dW``/``db`` in place; returns ``(dx, dh_prev)``.  This is
    :func:`gru_backward_step_proj`, then :func:`gru_proj_backward` over a
    block of one timestep: the calls a hoisted layer makes at ``proj_block=1``.
    """
    dz, dh_prev = gru_backward_step_proj(dh, cache.acts, cache.h_prev, W)
    return gru_proj_backward(cache.x, cache.h_prev, cache.acts[3], dz, W, dW, db), dh_prev


def gru_forward_chain(
    zx: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    h: np.ndarray,
    acts: Optional[np.ndarray] = None,
) -> None:
    """Steps ``k = 0..K-1`` of a GRU chain: the cell's one forward body.

    As :func:`repro.kernels.lstm.lstm_forward_chain`, with ``zx (K, ..., B,
    3H)`` (its two column blocks copied apart once) and the cache fields
    ``z, r, hbar, rh`` in ``acts (K, ..., 4, B, H)``.  Two pointwise
    stretches per step, one on each side of the candidate's recurrent GEMM,
    which has to wait for the reset gate.
    """
    hidden = h.shape[-1]
    two_h = 2 * hidden
    W_h = W[..., W.shape[-2] - hidden :, :]
    W_zr, W_a = W_h[..., :two_h], W_h[..., two_h:]
    zr = np.empty(h.shape[1:-1] + (two_h,), h.dtype)
    zr2 = zr.reshape(zr.shape[:-1] + (2, hidden))
    zr_gates = zr2.transpose((zr2.ndim - 2, *range(zr2.ndim - 2), zr2.ndim - 1))  # (2, ..., B, H)
    a, scratch = np.empty(h.shape[1:], h.dtype), np.empty(h.shape[1:], h.dtype)
    b_zr, b_a = at_shape(b[..., :two_h], zr.shape), at_shape(b[..., two_h:], a.shape)
    zx_zr, zx_a = np.ascontiguousarray(zx[..., :two_h]), np.ascontiguousarray(zx[..., two_h:])
    fields = None if acts is None else acts.swapaxes(-3, 1)  # (K, 4, ..., B, H)
    buf = None
    if acts is None:
        rows = tuple(at_shape(row, zr.shape) for row in gate_rows("ss", hidden, zr.dtype))
        gates = np.empty(zr_gates.shape, zr.dtype)
        (z, r), hbar, rh = gates, a, scratch
    elif not fields[0, 0].flags.c_contiguous:
        buf = np.empty(fields.shape[1:], h.dtype)  # a pair's fields interleave its chains
    for k in range(len(zx)):
        np.matmul(h_prev, W_zr, out=zr)
        h_k = h[k]
        with activations.pointwise_turn:
            zr += zx_zr[k]
            zr += b_zr
            if acts is None:
                activate_gates_(zr, "ss", rows)
                np.copyto(gates, zr_gates)
            else:
                z, r, hbar, rh = slot = fields[k] if buf is None else buf
                np.copyto(slot[:2], zr_gates)
                sigmoid(slot[:2], slot[:2])  # z and r
            np.multiply(r, h_prev, out=rh)

        np.matmul(rh, W_a, out=a)
        with activations.pointwise_turn:
            a += zx_a[k]
            a += b_a
            np.tanh(a, out=hbar)
            np.multiply(z, hbar, out=h_k)
            h_k += np.multiply(np.subtract(1.0, z, out=scratch), h_prev, out=scratch)
            if buf is not None:
                np.copyto(fields[k], buf)
        h_prev = h_k


def gru_backward_step_proj(
    dh: np.ndarray,
    acts: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step, from its cache slot ``acts (4, B,
    H)`` and the state ``h_prev`` it read: what the recurrence waits for,
    ``(dz (B, 3H), dh_prev)``, ``dz`` columns ``[dz_zr | da]`` matching the
    fused weight layout.  ``dW``, ``db`` and ``dX`` are the per-block
    :func:`gru_proj_backward`'s.

    Two pointwise stretches around the candidate's recurrent data GEMM, then
    the update/reset one; both run weights-left (``(W_h·dZ^T)^T``), the
    operand order BLAS is fast at on a few rows.
    """
    z, r, hbar, _ = acts
    hidden = h_prev.shape[1]
    input_size = W.shape[0] - hidden
    two_h = 2 * hidden

    with activations.pointwise_turn:
        dz_gate = dh * (hbar - h_prev)
        dhbar = dh * z
        dh_prev = dh * (1.0 - z)
        da = dhbar * dtanh(hbar)

    drh = (W[input_size:, two_h:] @ da.T).T
    with activations.pointwise_turn:
        dr = drh * h_prev
        dh_prev += drh * r
        dz = np.empty((dh.shape[0], 3 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dz_gate * dsigmoid(z)
        dz[:, hidden:two_h] = dr * dsigmoid(r)
        dz[:, two_h:] = da

    # a GEMM's own accumulation stays with it, outside the turn
    dh_prev += (W[input_size:, :two_h] @ dz[:, :two_h].T).T
    return dz, dh_prev


def gru_proj_backward(
    X: np.ndarray,
    H_prev: np.ndarray,
    RH: np.ndarray,
    dZ: np.ndarray,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    need_dx: bool = True,
) -> Optional[np.ndarray]:
    """Hoisted backward of a block of timesteps, their rows stacked.

    The candidate gate multiplies ``R_t ⊙ H_{t-1}`` (``RH``) where the other
    two multiply ``H_{t-1}``, so the recurrent rows take one GEMM per column
    block: ``dW[:I] += X^T·dZ``, ``dW[I:, :2H] += H_prev^T·dZ_zr``, ``dW[I:,
    2H:] += RH^T·da``; ``db += ΣdZ``.  Returns ``dX = dZ·W_x^T`` (``None``
    unless ``need_dx``).  A block of one step is :func:`gru_backward_step`'s
    body: bitwise the per-step graph at ``proj_block=1``, equal to its sums
    to rounding over longer blocks.
    """
    input_size = X.shape[1]
    two_h = 2 * H_prev.shape[1]
    dW[:input_size] += X.T @ dZ
    dW[input_size:, :two_h] += H_prev.T @ dZ[:, :two_h]
    dW[input_size:, two_h:] += RH.T @ dZ[:, two_h:]
    db += dZ.sum(axis=0)
    return dZ @ W[:input_size].T if need_dx else None

