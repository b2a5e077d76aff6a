"""Cell-type dispatch shared by the reference oracle and the B-Par tasks.

Both execution paths call *these* functions for every cell update, so any
schedule that respects the data dependences computes bit-identical results.
LSTM cells carry a cell state ``c``; for GRUs the ``c``/``dc`` slots are
``None`` and flow through untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.gru import (
    gru_backward_step,
    gru_backward_step_proj,
    gru_backward_step_unfused,
    gru_forward_step,
    gru_forward_step_proj,
    gru_forward_step_unfused,
    gru_proj_backward,
)
from repro.kernels.lstm import (
    lstm_backward_step,
    lstm_backward_step_proj,
    lstm_backward_step_unfused,
    lstm_forward_step,
    lstm_forward_step_proj,
    lstm_forward_step_unfused,
    lstm_proj_backward,
)
from repro.kernels.rnn import (
    rnn_backward_step,
    rnn_backward_step_proj,
    rnn_backward_step_unfused,
    rnn_forward_step,
    rnn_forward_step_proj,
    rnn_forward_step_unfused,
)
from repro.models.spec import CELLS, BRNNSpec

#: The kernel vocabulary (``ExecutionConfig.fusion``, docs/PERF.md): "off",
#: the per-gate reference kernels, one GEMM pair and one activation pass per
#: gate; "gates", one stacked gate GEMM (the default).  Defined here only;
#: ``config.py``, the CLI, the builder and the certificate import it.
FUSION_MODES = ("off", "gates")

_FWD_STEP = {
    "lstm": {"off": lstm_forward_step_unfused, "gates": lstm_forward_step},
    "gru": {"off": gru_forward_step_unfused, "gates": gru_forward_step},
    "rnn": {"off": rnn_forward_step_unfused, "gates": rnn_forward_step},
}

_BWD_STEP = {
    "lstm": {"off": lstm_backward_step_unfused, "gates": lstm_backward_step},
    "gru": {"off": gru_backward_step_unfused, "gates": gru_backward_step},
    "rnn": {"off": rnn_backward_step_unfused, "gates": rnn_backward_step},
}

_FWD_STEP_PROJ = {
    "lstm": lstm_forward_step_proj,
    "gru": gru_forward_step_proj,
    "rnn": rnn_forward_step_proj,
}

_BWD_STEP_PROJ = {
    "lstm": lstm_backward_step_proj,
    "gru": gru_backward_step_proj,
    "rnn": rnn_backward_step_proj,
}


def cell_forward(
    spec: BRNNSpec,
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: Optional[np.ndarray],
    W: np.ndarray,
    b: np.ndarray,
    fusion: str = "gates",
    need_cache: bool = True,
):
    """One cell update; returns ``(h, c_or_None, cache)``.

    ``fusion`` selects the kernels (:data:`FUSION_MODES`); the two forwards
    are bitwise on the shapes ``tests/core/test_fusion.py`` pins; not a BLAS
    guarantee (docs/TESTING.md).  ``need_cache=False`` (inference) returns
    ``cache=None``, and the stacked kernels then activate the gates in place.
    """
    fn = _FWD_STEP[spec.cell][fusion]
    if spec.cell == "lstm":
        return fn(x, h_prev, c_prev, W, b, need_cache)
    h, cache = fn(x, h_prev, W, b, need_cache)
    return h, None, cache


def cell_backward(
    spec: BRNNSpec,
    dh: np.ndarray,
    dc: Optional[np.ndarray],
    cache,
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    fusion: str = "gates",
):
    """Backward of one cell update; returns ``(dx, dh_prev, dc_prev_or_None)``.

    ``fusion="off"`` uses the split per-gate backward, gradcheck-exact
    against the stacked one, not bitwise.
    """
    fn = _BWD_STEP[spec.cell][fusion]
    if spec.cell == "lstm":
        return fn(dh, dc, cache, W, dW, db)
    dx, dh_prev = fn(dh, cache, W, dW, db)
    return dx, dh_prev, None


def _stack(rows: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of a block of timesteps, one below the other."""
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)


def cell_input_projection(
    spec: BRNNSpec, xs: Sequence[np.ndarray], W: np.ndarray
) -> List[np.ndarray]:
    """Hoisted input projection of a block of timesteps: ``[x_t @ W[:I]]``.

    Stacks the block's inputs into one ``(K·B, I)`` GEMM — the fused-
    projection optimisation — and returns per-timestep ``(B, G·H)`` slices.
    Each row block equals the per-timestep ``(B, I) @ (I, G·H)`` product
    bitwise on the shapes ``tests/core/test_fused_projection.py`` pins; not a
    BLAS guarantee (docs/TESTING.md has shapes where it does not; the
    per-step graph, ``fused_input_projection="off"``, is the one that is
    bitwise the oracle everywhere).  Single-row operands go to a different
    (matvec) kernel, so a batch of 1 falls back to per-timestep products.
    """
    input_size = xs[0].shape[1]
    Wx = W[:input_size]
    batch = xs[0].shape[0]
    if batch == 1:
        return [x @ Wx for x in xs]
    zx = _stack(xs) @ Wx
    return [zx[k * batch : (k + 1) * batch] for k in range(len(xs))]


def cell_forward_proj(
    spec: BRNNSpec,
    zx: np.ndarray,
    h_prev: np.ndarray,
    c_prev: Optional[np.ndarray],
    W: np.ndarray,
    b: np.ndarray,
    need_cache: bool = True,
):
    """Shrunken cell update from a precomputed ``Zx_t``; returns ``(h, c, cache)``.

    Stacked kernels only: the builder never hoists under ``fusion="off"``.
    ``need_cache`` as in :func:`cell_forward`.
    """
    fn = _FWD_STEP_PROJ[spec.cell]
    if spec.cell == "lstm":
        return fn(zx, h_prev, c_prev, W, b, need_cache)
    h, cache = fn(zx, h_prev, W, b, need_cache)
    return h, None, cache


def cell_backward_proj(
    spec: BRNNSpec,
    dh: np.ndarray,
    dc: Optional[np.ndarray],
    cache,
    W: np.ndarray,
):
    """Backward of the shrunken cell update; returns ``(dz, dh_prev, dc_prev)``.

    Only what the recurrence waits for: the pointwise work and ``dh_prev =
    dZ·W_h^T``.  ``dz`` is a single ``(B, G·H)`` block for the per-block
    :func:`cell_proj_backward` GEMMs downstream.
    """
    fn = _BWD_STEP_PROJ[spec.cell]
    if spec.cell == "lstm":
        return fn(dh, dc, cache, W)
    dz, dh_prev = fn(dh, cache, W)
    return dz, dh_prev, None


def cell_proj_backward(
    spec: BRNNSpec,
    xs: Sequence[np.ndarray],
    h_prevs: Sequence[np.ndarray],
    dzs: Sequence[np.ndarray],
    W: np.ndarray,
    dW: np.ndarray,
    db: np.ndarray,
    need_dx: bool = True,
    rhs: Optional[Sequence[np.ndarray]] = None,
) -> Optional[List[np.ndarray]]:
    """Hoisted backward of a block of timesteps: everything ``dz`` feeds
    except ``dh_prev``.

    Stacks the block's per-timestep inputs ``xs``, previous states
    ``h_prevs`` and pre-activation gradients ``dzs`` (GRU: also ``rhs``, the
    cached ``R_t ⊙ H_{t-1}``) and accumulates the whole weight-gradient
    panel and the bias gradient in place, once per block.  Returns the
    per-timestep ``dX`` slices (``None`` unless ``need_dx``).
    """
    X, H_prev, dZ = _stack(xs), _stack(h_prevs), _stack(dzs)
    if spec.cell == "gru":
        dX = gru_proj_backward(X, H_prev, _stack(rhs), dZ, W, dW, db, need_dx)
    else:  # one panel GEMM whatever the gate count: the basic RNN's too
        dX = lstm_proj_backward(X, H_prev, dZ, W, dW, db, need_dx)
    if dX is None:
        return None
    batch = xs[0].shape[0]
    return [dX[k * batch : (k + 1) * batch] for k in range(len(xs))]


# -- flop counts (the cost model's inputs) -----------------------------------------
#
# Every count is a product of small integers, so sums of them are exact and
# the conservation identities hold with ``==``: hoisting moves the input half
# of the gate GEMM (forward) and everything but the ``dh_prev`` GEMM
# (backward) off the chain, it creates and destroys nothing.


def _gemm_flops(spec: BRNNSpec, batch: int, rows: int, n_gates: Optional[int] = None) -> float:
    """``(batch, rows) @ (rows, n_gates·H)``, multiply and add (``None`` = all gates)."""
    g = CELLS[spec.cell].gates if n_gates is None else n_gates
    return 2.0 * batch * rows * g * spec.hidden_size


def cell_gate_gemm_flops(
    spec: BRNNSpec, batch: int, layer: int, n_gates: Optional[int] = None
) -> float:
    """GEMM flops of ``n_gates`` gate pre-activations (``None`` = all gates).

    Summing the per-gate calls (``n_gates=1``) over a cell's gates equals
    the stacked total *exactly* — the conservation invariant the fusion
    pass's flops accounting is audited against.
    """
    return _gemm_flops(spec, batch, spec.layer_input_size(layer) + spec.hidden_size, n_gates)


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
