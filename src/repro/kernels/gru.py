"""GRU cell kernels — Equations (7)-(10) of the paper.

Weight layout: one fused matrix ``W`` of shape ``(I + H, 3H)`` per
layer/direction with gate order ``[z, r, h̄]`` and bias ``b (3H,)``.
The update/reset gates fuse into one GEMM; the candidate ``H̄_t`` needs a
separate recurrent product because Eq. (9) applies the reset gate to
``H_{t-1}`` *before* the matrix multiply (``[X_t, R_t ⊙ H_{t-1}]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels import activations
from repro.kernels.activations import activate_gates_, cache_field, dsigmoid, dtanh, sigmoid


@dataclass
class GRUCache:
    """Forward activations retained for the backward pass."""

    x: Optional[np.ndarray]  # None on the fused-projection path (dx via proj_bwd)
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    hbar: np.ndarray
    rh: np.ndarray  # R_t ⊙ H_{t-1}


def _activate(zr: np.ndarray, hidden: int, need_cache: bool, out: Optional[np.ndarray] = None):
    """Update and reset gates ``(z, r)`` of the biased pre-activation ``zr (B,
    2H)``; the caller holds the turn.  As in :mod:`repro.kernels.lstm`: a
    cache for the backward gets contiguous per-gate arrays (fresh, or the
    gate fields of its cache slot ``out``), and with nothing retained ``zr`` is
    activated in place and the gates are views of it.  Bitwise the same
    values either way."""
    if need_cache:
        z = sigmoid(zr[..., :hidden], cache_field(out, 0))
        return z, sigmoid(zr[..., hidden:], cache_field(out, 1))
    activate_gates_(zr, "ss")
    return zr[..., :hidden], zr[..., hidden:]


def gru_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update: ``x (B, I)``, ``h_prev (B, H)`` → ``(h, cache)``;
    with ``need_cache=False`` (inference) the gates are activated in place
    and the cache is ``None``; ``h`` is written into ``out`` when given.
    This is :func:`gru_forward_step_proj` fed the input projection of a
    block of one timestep, so the two agree bitwise whatever BLAS does.
    """
    input_size = W.shape[-2] - h_prev.shape[-1]
    h, cache = gru_forward_step_proj(x @ W[..., :input_size, :], h_prev, W, b, need_cache, out)
    if cache is not None:
        cache.x = x
    return h, cache


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
    dz, dh_prev = gru_backward_step_proj(dh, cache, W)
    return gru_proj_backward(cache.x, cache.h_prev, cache.rh, dz, W, dW, db), dh_prev


def gru_forward_step_proj(
    zx: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[np.ndarray] = None,
    cache_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update from a precomputed input projection.

    ``zx (B, 3H)`` is this timestep's slice of the hoisted ``X @ W[:I]``
    GEMM.  The one forward body of the cell: :func:`gru_forward_step` calls
    it with its own ``x @ W[:I]``.  ``need_cache`` as there; the cache's
    ``x`` is ``None`` (the hoisted backward reads the inputs by block).
    ``out`` as there, and ``cache_out``, a ``(..., 4, B, H)`` slot, where
    the cache's ``z, r, hbar, rh`` are written: the same ufuncs write into
    them, so the bits do not depend on where ``h`` and the cache land.

    Two pointwise stretches, one on each side of the candidate's recurrent
    GEMM, which has to wait for the reset gate.
    """
    hidden = h_prev.shape[-1]
    input_size = W.shape[-2] - hidden
    two_h = 2 * hidden

    zr = h_prev @ W[..., input_size:, :two_h]
    with activations.pointwise_turn:
        zr += zx[..., :two_h]
        zr += b[..., :two_h]
        z, r = _activate(zr, hidden, need_cache, cache_out)
        rh_out = cache_field(cache_out, 3)
        rh = r * h_prev if rh_out is None else np.multiply(r, h_prev, out=rh_out)

    a = rh @ W[..., input_size:, two_h:]
    with activations.pointwise_turn:
        a += zx[..., two_h:]
        a += b[..., two_h:]
        hbar = np.tanh(a, out=a if cache_out is None else cache_field(cache_out, 2))
        h = np.multiply(z, hbar, out=out)
        h += (1.0 - z) * h_prev
    if not need_cache:
        return h, None
    return h, GRUCache(x=None, h_prev=h_prev, z=z, r=r, hbar=hbar, rh=rh)


def gru_backward_step_proj(
    dh: np.ndarray,
    cache: GRUCache,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step: what the recurrence waits for,
    ``(dz (B, 3H), dh_prev)``, ``dz`` columns ``[dz_zr | da]`` matching the
    fused weight layout.  ``dW``, ``db`` and ``dX`` are the per-block
    :func:`gru_proj_backward`'s.

    Two pointwise stretches around the candidate's recurrent data GEMM, then
    the update/reset one; both run weights-left (``(W_h·dZ^T)^T``), the
    operand order BLAS is fast at on a few rows.
    """
    hidden = cache.h_prev.shape[1]
    input_size = W.shape[0] - hidden
    two_h = 2 * hidden

    with activations.pointwise_turn:
        dz_gate = dh * (cache.hbar - cache.h_prev)
        dhbar = dh * cache.z
        dh_prev = dh * (1.0 - cache.z)
        da = dhbar * dtanh(cache.hbar)

    drh = (W[input_size:, two_h:] @ da.T).T
    with activations.pointwise_turn:
        dr = drh * cache.h_prev
        dh_prev += drh * cache.r
        dz = np.empty((dh.shape[0], 3 * hidden), dtype=dh.dtype)
        dz[:, :hidden] = dz_gate * dsigmoid(cache.z)
        dz[:, hidden:two_h] = dr * dsigmoid(cache.r)
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

