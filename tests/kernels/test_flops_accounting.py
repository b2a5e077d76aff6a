"""Pin the kernel flop-accounting formulas (the cost model's inputs).

The simulated machine charges task durations from these counts, so a
silent formula drift skews every simulated table/figure.  Each count is
pinned against a hand-derived expression, plus two structural invariants:

* ``bwd = bwd_data + bwd_weight + elementwise`` — the backward split
  introduced so weight-gradient GEMMs (off the recurrent chain when
  fused) are accounted separately from data-gradient GEMMs.
* ``proj + fwd_step_proj = fwd`` and ``proj_bwd + bwd_step_proj = bwd`` —
  hoisting moves flops off the chain, it does not create or destroy them:
  forward the input half of the gate GEMM, backward everything but the
  ``dh_prev`` GEMM (the whole weight-gradient panel and ``dX``).
"""

import pytest

from repro.models.cells import (
    cell_bwd_flops,
    cell_bwd_pointwise_flops,
    cell_bwd_step_proj_flops,
    cell_fwd_flops,
    cell_fwd_pointwise_flops,
    cell_fwd_step_proj_flops,
    cell_gate_gemm_flops,
    cell_proj_bwd_flops,
    cell_proj_flops,
)
from repro.models.spec import CELLS, BRNNSpec

B, I, H = 8, 6, 5  # batch, input, hidden — arbitrary but distinct

#: (gate multiplier, elementwise fwd, elementwise bwd) per cell, pinned by
#: hand: ``spec.CELLS`` must say the same
PINNED = {
    "lstm": (4, 14, 30),
    "gru": (3, 13, 28),
}


def spec_of(cell, input_size=I):
    """One layer, so ``layer=0`` reads ``input_size``."""
    return BRNNSpec(cell=cell, input_size=input_size, hidden_size=H, num_layers=1)


# The per-step backward has no separate count for its two GEMM families;
# each is the size of the gate GEMM: the data gradients are ``dZ x W^T``, and
# the weight gradients are the hoisted panel ``[X|H]^T x dZ`` without ``dX``.


def bwd_data(spec):
    return cell_gate_gemm_flops(spec, B, 0)


def bwd_weight(spec):
    return cell_proj_bwd_flops(spec, B, 0, need_dx=False)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_formulas_pinned(cell):
    g, ew_f, ew_b = PINNED[cell]
    row = CELLS[cell]
    assert (row.gates, row.fwd_pointwise, row.bwd_pointwise) == PINNED[cell]
    spec = spec_of(cell)
    gemm_full = 2.0 * B * (I + H) * g * H   # (B, I+H) x (I+H, gH), mul+add
    gemm_rec = 2.0 * B * H * g * H          # recurrent half only
    gemm_inp = 2.0 * B * I * g * H          # input half only

    assert cell_fwd_flops(spec, B, 0) == gemm_full + ew_f * B * H
    assert bwd_data(spec) == gemm_full       # dZ x W^T
    assert bwd_weight(spec) == gemm_full     # [X|H]^T x dZ
    assert cell_bwd_flops(spec, B, 0) == 2 * gemm_full + ew_b * B * H

    assert cell_proj_flops(spec, B, 0) == gemm_inp
    assert cell_fwd_step_proj_flops(spec, B) == gemm_rec + ew_f * B * H
    assert cell_bwd_step_proj_flops(spec, B) == gemm_rec + ew_b * B * H   # dh_prev only
    assert cell_proj_bwd_flops(spec, B, 0, need_dx=False) == gemm_full    # [X|H]^T x dZ
    assert cell_proj_bwd_flops(spec, B, 0, need_dx=True) == gemm_full + gemm_inp   # + dX


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_backward_split_invariant(cell):
    """data + weight + elementwise must reconstitute the total exactly."""
    _, _, ew_b = PINNED[cell]
    spec = spec_of(cell)
    assert cell_bwd_flops(spec, B, 0) == bwd_data(spec) + bwd_weight(spec) + ew_b * B * H


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_hoisting_conserves_flops(cell):
    """Hoisting relocates GEMMs; totals are conserved per step."""
    spec = spec_of(cell)
    proj, proj_bwd = cell_proj_flops(spec, B, 0), cell_proj_bwd_flops(spec, B, 0)
    assert proj + cell_fwd_step_proj_flops(spec, B) == cell_fwd_flops(spec, B, 0)
    # backward: hoisted dW panel + dX blocks + shrunken step == full step;
    # the recurrent rows' 2·B·H·G·H left the step for the block task
    assert proj_bwd + cell_bwd_step_proj_flops(spec, B) == cell_bwd_flops(spec, B, 0)
    assert proj_bwd == bwd_weight(spec) + proj


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_fwd_splits_into_gemm_plus_pointwise(cell):
    """The GEMM + pointwise split must reconstitute the forward total
    exactly."""
    spec = spec_of(cell)
    assert cell_gate_gemm_flops(spec, B, 0) + cell_fwd_pointwise_flops(spec, B) \
        == cell_fwd_flops(spec, B, 0)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_bwd_splits_into_gemms_plus_pointwise(cell):
    """Backward: data GEMM + weight GEMM + pointwise == total, with the
    pointwise share matching the pinned elementwise coefficient."""
    _, ew_f, ew_b = PINNED[cell]
    spec = spec_of(cell)
    assert cell_fwd_pointwise_flops(spec, B) == ew_f * B * H
    assert cell_bwd_pointwise_flops(spec, B) == ew_b * B * H
    assert bwd_data(spec) + bwd_weight(spec) + cell_bwd_pointwise_flops(spec, B) \
        == cell_bwd_flops(spec, B, 0)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_weight_gradient_share_scales_with_input(cell):
    """The weight-gradient share must track I+H, not just H."""
    wide = bwd_weight(spec_of(cell, 4 * I))
    assert wide == pytest.approx(bwd_data(spec_of(cell, 4 * I)))
    assert wide > bwd_weight(spec_of(cell))
