"""Cell-type dispatch shared by the reference oracle and the B-Par tasks.

Both execution paths call *these* functions for every cell update, so any
schedule that respects the data dependences computes bit-identical results.
LSTM cells carry a cell state ``c``; for GRUs the ``c``/``dc`` slots are
``None`` and flow through untouched.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.gru import (
    gru_backward_step,
    gru_backward_step_proj,
    gru_forward_chain,
    gru_forward_step,
    gru_proj_backward,
)
from repro.kernels.lstm import (
    lstm_backward_step,
    lstm_backward_step_proj,
    lstm_forward_chain,
    lstm_forward_step,
    lstm_proj_backward,
)
from repro.models.spec import CELLS, BRNNSpec

#: One kernel per cell type: the stacked gate GEMM (one call for every
#: gate's pre-activation) and one pointwise stretch.
_FWD_STEP = {
    "lstm": lstm_forward_step,
    "gru": gru_forward_step,
}

_BWD_STEP = {
    "lstm": lstm_backward_step,
    "gru": gru_backward_step,
}

_BWD_STEP_PROJ = {
    "lstm": lstm_backward_step_proj,
    "gru": gru_backward_step_proj,
}


#: The ``(B, H)`` fields a forward cell writes into its cache slot, in the
#: order of the slot's field axis (``ChunkState.acts``, ``(T, 2, F, B, H)``).
CACHE_FIELDS = {"lstm": ("i", "f", "g", "o", "tc"), "gru": ("z", "r", "hbar", "rh")}


def cell_forward(
    spec: BRNNSpec,
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: Optional[np.ndarray],
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
    out: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None,
):
    """One cell update; returns ``(h, c_or_None, cache)``.

    ``need_cache=False`` (inference) returns ``cache=None``, and the kernels
    then activate the gates in place.  ``out``, an ``(h, c_or_None)`` pair,
    is where the kernel writes the new state.
    """
    fn = _FWD_STEP[spec.cell]
    if spec.cell == "lstm":
        return fn(x, h_prev, c_prev, W, b, need_cache, out)
    h, cache = fn(x, h_prev, W, b, need_cache, None if out is None else out[0])
    return h, None, cache


def cell_backward(
    spec: BRNNSpec,
    dh: np.ndarray,
    dc: Optional[np.ndarray],
    cache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
):
    """Backward of one cell update; returns ``(dx, dh_prev, dc_prev_or_None)``."""
    fn = _BWD_STEP[spec.cell]
    if spec.cell == "lstm":
        return fn(dh, dc, cache, W, dW, db)
    dx, dh_prev = fn(dh, cache, W, dW, db)
    return dx, dh_prev, None


def _rows(block: np.ndarray) -> np.ndarray:
    """A ``(K, B, n)`` block of timesteps as ``(K·B, n)`` rows, one step
    below the other (a view where the block is contiguous)."""
    return block.reshape(-1, block.shape[-1])


def cell_input_projection(spec: BRNNSpec, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Hoisted input projection of a block of timesteps: ``X (K, B, I)`` to
    ``(K, B, G·H)``, ``X_t @ W[:I]`` per step.

    Runs the block's rows as one ``(K·B, I)`` GEMM — the fused-projection
    optimisation.  Each row block equals the per-timestep ``(B, I) @ (I,
    G·H)`` product bitwise on the shapes ``tests/core/test_fused_projection.py``
    pins; not a BLAS guarantee (docs/TESTING.md has shapes where it does not;
    the per-step graph, ``fused_input_projection="off"``, is the one that is
    bitwise the oracle everywhere).  Single-row operands go to a different
    (matvec) kernel, so a batch of 1 falls back to per-timestep products.
    """
    steps, batch, input_size = X.shape
    Wx = W[:input_size]
    if batch == 1:
        return np.stack([x @ Wx for x in X])
    return (_rows(X) @ Wx).reshape(steps, batch, -1)


def cell_forward_chain(
    spec: BRNNSpec,
    zx: np.ndarray,
    h_prev: np.ndarray,
    c_prev: Optional[np.ndarray],
    W: np.ndarray,
    b: np.ndarray,
    h: np.ndarray,
    c: Optional[np.ndarray],
    acts: Optional[np.ndarray] = None,
) -> None:
    """``K`` steps of a chain or of stacked chains, the cell's one forward
    body: from the input projections ``zx (K, ..., B, G·H)`` and the state
    before step 0, step ``k`` writes ``h[k]`` (LSTM: ``c[k]``) and, given
    ``acts (K, ..., F, B, H)``, its :data:`CACHE_FIELDS`."""
    if spec.cell == "lstm":
        lstm_forward_chain(zx, h_prev, c_prev, W, b, h, c, acts)
    else:
        gru_forward_chain(zx, h_prev, W, b, h, acts)


def cell_backward_proj(
    spec: BRNNSpec,
    dh: np.ndarray,
    dc: Optional[np.ndarray],
    acts: np.ndarray,
    h_prev: np.ndarray,
    c_prev: Optional[np.ndarray],
    W: np.ndarray,
):
    """Backward of the shrunken cell update; returns ``(dz, dh_prev, dc_prev)``.

    Reads the step's ``(F, B, H)`` cache slot ``acts`` and the state
    ``h_prev``/``c_prev`` it read.  Only what the recurrence waits for: the
    pointwise work and ``dh_prev = dZ·W_h^T``.  ``dz`` is a single ``(B,
    G·H)`` block for the :func:`cell_proj_backward` GEMMs downstream.
    """
    fn = _BWD_STEP_PROJ[spec.cell]
    if spec.cell == "lstm":
        return fn(dh, dc, acts, c_prev, W)
    dz, dh_prev = fn(dh, acts, h_prev, W)
    return dz, dh_prev, None


def cell_proj_backward(
    spec: BRNNSpec,
    X: np.ndarray,
    H_prev: np.ndarray,
    dZ: np.ndarray,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    need_dx: bool = True,
    acts: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Hoisted backward of a block of timesteps: everything ``dz`` feeds
    except ``dh_prev``.

    Takes the block's inputs ``X (K, B, I)``, previous states ``H_prev``
    and pre-activation gradients ``dZ`` (GRU: also the cache slots ``acts
    (K, F, B, H)`` for ``R_t ⊙ H_{t-1}``), their steps in sequence order,
    and accumulates the whole
    weight-gradient panel and the bias gradient in place, once per block,
    over their ``(K·B, ·)`` rows.  Returns ``dX (K, B, I)`` (``None`` unless
    ``need_dx``).
    """
    rows, h_rows, dz_rows = _rows(X), _rows(H_prev), _rows(dZ)
    if spec.cell == "gru":
        rh = _rows(acts[:, CACHE_FIELDS["gru"].index("rh")])
        dX = gru_proj_backward(rows, h_rows, rh, dz_rows, W, dW, db, need_dx)
    else:
        dX = lstm_proj_backward(rows, h_rows, dz_rows, W, dW, db, need_dx)
    return None if dX is None else dX.reshape(X.shape)


# -- flop counts (the cost model's inputs) -----------------------------------------
#
# Every count is a product of small integers, so sums of them are exact and
# the conservation identities hold with ``==``: hoisting moves the input half
# of the gate GEMM (forward) and everything but the ``dh_prev`` GEMM
# (backward) off the chain, it creates and destroys nothing.


def _gemm_flops(spec: BRNNSpec, batch: int, rows: int) -> float:
    """``(batch, rows) @ (rows, G·H)``, multiply and add."""
    return 2.0 * batch * rows * CELLS[spec.cell].gates * spec.hidden_size


def cell_gate_gemm_flops(spec: BRNNSpec, batch: int, layer: int) -> float:
    """GEMM flops of a cell's stacked gate pre-activations."""
    return _gemm_flops(spec, batch, spec.layer_input_size(layer) + spec.hidden_size)


def cell_fwd_pointwise_flops(spec: BRNNSpec, batch: int) -> float:
    """Elementwise flops of one forward cell update (activation + state math)."""
    return float(CELLS[spec.cell].fwd_pointwise * batch * spec.hidden_size)


def cell_bwd_pointwise_flops(spec: BRNNSpec, batch: int) -> float:
    """Elementwise flops of one backward cell update."""
    return float(CELLS[spec.cell].bwd_pointwise * batch * spec.hidden_size)


def cell_fwd_flops(spec: BRNNSpec, batch: int, layer: int) -> float:
    """One forward cell update: the stacked gate GEMM and the pointwise work."""
    return cell_gate_gemm_flops(spec, batch, layer) + cell_fwd_pointwise_flops(spec, batch)


def cell_bwd_flops(spec: BRNNSpec, batch: int, layer: int) -> float:
    """One backward cell update (≈2× forward): the data-gradient GEMMs
    (``dx``, ``dh_prev``), the weight-gradient GEMMs, each the size of the
    gate GEMM, and the pointwise work."""
    return 2 * cell_gate_gemm_flops(spec, batch, layer) + cell_bwd_pointwise_flops(spec, batch)


def cell_proj_flops(spec: BRNNSpec, batch: int, layer: int) -> float:
    """Per-timestep flops of the hoisted forward input projection ``X_t @ W_x``."""
    return _gemm_flops(spec, batch, spec.layer_input_size(layer))


def cell_fwd_step_proj_flops(spec: BRNNSpec, batch: int) -> float:
    """Forward flops of the shrunken (fused-projection) cell step: the
    recurrent GEMM and the pointwise work."""
    return _gemm_flops(spec, batch, spec.hidden_size) + cell_fwd_pointwise_flops(spec, batch)


def cell_bwd_step_proj_flops(spec: BRNNSpec, batch: int) -> float:
    """Backward flops of the shrunken (fused-projection) cell step: the
    ``dh_prev`` GEMM and the pointwise work."""
    return _gemm_flops(spec, batch, spec.hidden_size) + cell_bwd_pointwise_flops(spec, batch)


def cell_proj_bwd_flops(
    spec: BRNNSpec, batch: int, layer: int, need_dx: bool = True
) -> float:
    """Per-timestep flops of the hoisted backward (the whole ``dW`` panel
    and, above layer 0, ``dX``)."""
    panel = cell_gate_gemm_flops(spec, batch, layer)
    return panel + (cell_proj_flops(spec, batch, layer) if need_dx else 0.0)


def zeros_state(spec: BRNNSpec, batch: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Initial (h0, c0) for one direction of one layer."""
    h0 = np.zeros((batch, spec.hidden_size), dtype=spec.dtype)
    c0 = np.zeros((batch, spec.hidden_size), dtype=spec.dtype) if spec.cell == "lstm" else None
    return h0, c0
