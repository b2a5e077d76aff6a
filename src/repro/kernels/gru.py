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
from repro.kernels.activations import activate_gates_, dsigmoid, dtanh, sigmoid, tanh


@dataclass
class GRUCache:
    """Forward activations retained for the backward pass."""

    x: Optional[np.ndarray]  # None on the fused-projection path (dx via proj_bwd)
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    hbar: np.ndarray
    rh: np.ndarray  # R_t ⊙ H_{t-1}

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (self.x, self.h_prev, self.z, self.r, self.hbar, self.rh)
            if a is not None
        )


def _activate(zr: np.ndarray, hidden: int, need_cache: bool):
    """Update and reset gates ``(z, r)`` of the biased pre-activation ``zr (B,
    2H)``; the caller holds the turn.  As in :mod:`repro.kernels.lstm`: a
    cache for the backward gets contiguous per-gate arrays, and with nothing
    retained ``zr`` is activated in place and the gates are views of it.
    Bitwise the same values either way."""
    if need_cache:
        return sigmoid(zr[:, :hidden]), sigmoid(zr[:, hidden:])
    activate_gates_(zr, "ss")
    return zr[:, :hidden], zr[:, hidden:]


def gru_forward_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update: ``x (B, I)``, ``h_prev (B, H)`` → ``(h, cache)``;
    with ``need_cache=False`` (inference) the gates are activated in place
    and the cache is ``None``.  This is :func:`gru_forward_step_proj` fed the
    input projection of a block of one timestep, so the two agree bitwise
    whatever BLAS does.
    """
    h, cache = gru_forward_step_proj(x @ W[: x.shape[1]], h_prev, W, b, need_cache)
    if cache is not None:
        cache.x = x
    return h, cache


def _backward_chain(
    dh: np.ndarray, cache: GRUCache, W: np.ndarray, db: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """What the recurrence waits for: ``(dz (B, 3H), dh_prev)``, ``dz``
    columns ``[dz_zr | da]`` matching the fused weight layout.

    Two pointwise stretches around the candidate's recurrent data GEMM, then
    the update/reset one; both run weights-left (``(W_h·dZ^T)^T``), the
    operand order BLAS is fast at on a few rows.  Adds ``Σdz`` to ``db`` when
    the caller accumulates the bias gradient per step (a few-row reduction,
    so it rides in the turn).
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
        if db is not None:
            db += dz.sum(axis=0)

    # a GEMM's own accumulation stays with it, outside the turn
    dh_prev += (W[input_size:, :two_h] @ dz[:, :two_h].T).T
    return dz, dh_prev


def gru_backward_step(
    dh: np.ndarray,
    cache: GRUCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of one GRU cell update.

    Accumulates ``dW``/``db`` in place; returns ``(dx, dh_prev)``.  The
    input-side products read the candidate and update/reset column blocks of
    the stacked ``dz`` as views.
    """
    input_size = cache.x.shape[1]
    two_h = 2 * cache.h_prev.shape[1]
    dz, dh_prev = _backward_chain(dh, cache, W, db)
    dzr, da = dz[:, :two_h], dz[:, two_h:]

    dx = da @ W[:input_size, two_h:].T
    dx += dzr @ W[:input_size, :two_h].T
    dW[:input_size, :two_h] += cache.x.T @ dzr
    dW[input_size:, :two_h] += cache.h_prev.T @ dzr
    dW[:input_size, two_h:] += cache.x.T @ da
    dW[input_size:, two_h:] += cache.rh.T @ da
    return dx, dh_prev


def gru_forward_step_proj(
    zx: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update from a precomputed input projection.

    ``zx (B, 3H)`` is this timestep's slice of the hoisted ``X @ W[:I]``
    GEMM.  The one forward body of the cell: :func:`gru_forward_step` calls
    it with its own ``x @ W[:I]``.  ``need_cache`` as there; the cache's
    ``x`` is ``None`` (the hoisted backward reads the inputs by block).

    Two pointwise stretches, one on each side of the candidate's recurrent
    GEMM, which has to wait for the reset gate.
    """
    hidden = h_prev.shape[1]
    input_size = W.shape[0] - hidden
    two_h = 2 * hidden

    zr = h_prev @ W[input_size:, :two_h]
    with activations.pointwise_turn:
        zr += zx[:, :two_h]
        zr += b[:two_h]
        z, r = _activate(zr, hidden, need_cache)
        rh = r * h_prev

    a = rh @ W[input_size:, two_h:]
    with activations.pointwise_turn:
        a += zx[:, two_h:]
        a += b[two_h:]
        hbar = np.tanh(a, out=a)
        h = z * hbar + (1.0 - z) * h_prev
    if not need_cache:
        return h, None
    return h, GRUCache(x=None, h_prev=h_prev, z=z, r=r, hbar=hbar, rh=rh)


def gru_backward_step_proj(
    dh: np.ndarray,
    cache: GRUCache,
    W: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of the shrunken cell step: emits ``dz (B, 3H)`` instead of
    ``dx``.  ``dW``, ``db`` and ``dX`` are the per-block
    :func:`gru_proj_backward`'s.  Returns ``(dz, dh_prev)``."""
    return _backward_chain(dh, cache, W, None)


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
    unless ``need_dx``).  Equal to the per-step sums to rounding, not bitwise.
    """
    input_size = X.shape[1]
    two_h = 2 * H_prev.shape[1]
    dW[:input_size] += X.T @ dZ
    dW[input_size:, :two_h] += H_prev.T @ dZ[:, :two_h]
    dW[input_size:, two_h:] += RH.T @ dZ[:, two_h:]
    db += dZ.sum(axis=0)
    return dZ @ W[:input_size].T if need_dx else None


# -- the fusion="off" reference kernels (docs/PERF.md §fusion) --------------------
#
# As in kernels/lstm.py: one GEMM pair per gate, a separate activation pass each.


def gru_forward_step_unfused(
    x: np.ndarray,
    h_prev: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
) -> Tuple[np.ndarray, Optional[GRUCache]]:
    """One GRU cell update via per-gate GEMM pairs (fusion="off").

    The update and reset gates each get their own GEMM pair against their
    column block; the candidate keeps its inherently separate product.
    Bitwise the stacked kernel's on the shapes ``tests/core/test_fusion.py``
    pins; not a BLAS guarantee (docs/TESTING.md).
    """
    input_size = x.shape[1]
    hidden = h_prev.shape[1]
    two_h = 2 * hidden

    zc = x @ W[:input_size, :hidden]
    zc_h = h_prev @ W[input_size:, :hidden]
    rc = x @ W[:input_size, hidden:two_h]
    rc_h = h_prev @ W[input_size:, hidden:two_h]
    a = x @ W[:input_size, two_h:]
    with activations.pointwise_turn:
        zc += zc_h
        zc += b[:hidden]
        z = sigmoid(zc)
        rc += rc_h
        rc += b[hidden:two_h]
        r = sigmoid(rc)
        rh = r * h_prev

    a_h = rh @ W[input_size:, two_h:]
    with activations.pointwise_turn:
        a += a_h
        a += b[two_h:]
        hbar = tanh(a)
        h = z * hbar + (1.0 - z) * h_prev
    if not need_cache:
        return h, None
    return h, GRUCache(x=x, h_prev=h_prev, z=z, r=r, hbar=hbar, rh=rh)


def gru_backward_step_unfused(
    dh: np.ndarray,
    cache: GRUCache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of one GRU cell update via per-gate GEMMs (fusion="off").

    Per-gate ``dW``/``db`` blocks are bitwise identical to the stacked
    kernel's; ``dx``/``dh_prev`` split the 2H-wide ``dzr`` reduction into
    per-gate products — gradcheck-exact, not bitwise.
    """
    input_size = cache.x.shape[1]
    hidden = cache.h_prev.shape[1]
    two_h = 2 * hidden

    with activations.pointwise_turn:
        dz_gate = dh * (cache.hbar - cache.h_prev)
        dhbar = dh * cache.z
        dh_prev = dh * (1.0 - cache.z)
        da = dhbar * dtanh(cache.hbar)
        db[two_h:] += da.sum(axis=0)

    dx = da @ W[:input_size, two_h:].T
    drh = da @ W[input_size:, two_h:].T
    with activations.pointwise_turn:
        dr = drh * cache.h_prev
        dh_prev += drh * cache.r
        dz_z = dz_gate * dsigmoid(cache.z)
        dz_r = dr * dsigmoid(cache.r)
        db[:hidden] += dz_z.sum(axis=0)
        db[hidden:two_h] += dz_r.sum(axis=0)

    dx += dz_z @ W[:input_size, :hidden].T
    dx += dz_r @ W[:input_size, hidden:two_h].T
    dh_prev += dz_z @ W[input_size:, :hidden].T
    dh_prev += dz_r @ W[input_size:, hidden:two_h].T
    dW[:input_size, :hidden] += cache.x.T @ dz_z
    dW[:input_size, hidden:two_h] += cache.x.T @ dz_r
    dW[input_size:, :hidden] += cache.h_prev.T @ dz_z
    dW[input_size:, hidden:two_h] += cache.h_prev.T @ dz_r
    dW[:input_size, two_h:] += cache.x.T @ da
    dW[input_size:, two_h:] += cache.rh.T @ da
    return dx, dh_prev
