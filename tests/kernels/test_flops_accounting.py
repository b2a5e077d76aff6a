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

from repro.kernels.gru import (
    gru_bwd_data_flops,
    gru_bwd_flops,
    gru_bwd_pointwise_flops,
    gru_bwd_step_proj_flops,
    gru_bwd_weight_flops,
    gru_fwd_flops,
    gru_fwd_pointwise_flops,
    gru_fwd_step_proj_flops,
    gru_gate_gemm_flops,
    gru_proj_bwd_flops,
    gru_proj_flops,
)
from repro.kernels.lstm import (
    lstm_bwd_data_flops,
    lstm_bwd_flops,
    lstm_bwd_pointwise_flops,
    lstm_bwd_step_proj_flops,
    lstm_bwd_weight_flops,
    lstm_fwd_flops,
    lstm_fwd_pointwise_flops,
    lstm_fwd_step_proj_flops,
    lstm_gate_gemm_flops,
    lstm_proj_bwd_flops,
    lstm_proj_flops,
)
from repro.kernels.rnn import (
    rnn_bwd_data_flops,
    rnn_bwd_flops,
    rnn_bwd_pointwise_flops,
    rnn_bwd_step_proj_flops,
    rnn_bwd_weight_flops,
    rnn_fwd_flops,
    rnn_fwd_pointwise_flops,
    rnn_fwd_step_proj_flops,
    rnn_gate_gemm_flops,
    rnn_proj_bwd_flops,
    rnn_proj_flops,
)

B, I, H = 8, 6, 5  # batch, input, hidden — arbitrary but distinct

#: (gate multiplier, elementwise fwd, elementwise bwd) per cell
CELLS = {
    "lstm": (4, 14, 30),
    "gru": (3, 13, 28),
    "rnn": (1, 3, 6),
}

FNS = {
    "lstm": (lstm_fwd_flops, lstm_bwd_flops, lstm_bwd_data_flops,
             lstm_bwd_weight_flops, lstm_proj_flops, lstm_fwd_step_proj_flops,
             lstm_bwd_step_proj_flops, lstm_proj_bwd_flops),
    "gru": (gru_fwd_flops, gru_bwd_flops, gru_bwd_data_flops,
            gru_bwd_weight_flops, gru_proj_flops, gru_fwd_step_proj_flops,
            gru_bwd_step_proj_flops, gru_proj_bwd_flops),
    "rnn": (rnn_fwd_flops, rnn_bwd_flops, rnn_bwd_data_flops,
            rnn_bwd_weight_flops, rnn_proj_flops, rnn_fwd_step_proj_flops,
            rnn_bwd_step_proj_flops, rnn_proj_bwd_flops),
}

#: (stacked gate GEMM, forward pointwise, backward pointwise) per cell —
#: the fusion pass's accounting splits (docs/PERF.md)
FUSION_FNS = {
    "lstm": (lstm_gate_gemm_flops, lstm_fwd_pointwise_flops, lstm_bwd_pointwise_flops),
    "gru": (gru_gate_gemm_flops, gru_fwd_pointwise_flops, gru_bwd_pointwise_flops),
    "rnn": (rnn_gate_gemm_flops, rnn_fwd_pointwise_flops, rnn_bwd_pointwise_flops),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_formulas_pinned(cell):
    g, ew_f, ew_b = CELLS[cell]
    fwd, bwd, bwd_data, bwd_weight, proj, fwd_sp, bwd_sp, proj_bwd = FNS[cell]
    gemm_full = 2.0 * B * (I + H) * g * H   # (B, I+H) x (I+H, gH), mul+add
    gemm_rec = 2.0 * B * H * g * H          # recurrent half only
    gemm_inp = 2.0 * B * I * g * H          # input half only

    assert fwd(B, I, H) == gemm_full + ew_f * B * H
    assert bwd_data(B, I, H) == gemm_full       # dZ x W^T
    assert bwd_weight(B, I, H) == gemm_full     # [X|H]^T x dZ
    assert bwd(B, I, H) == 2 * gemm_full + ew_b * B * H

    assert proj(B, I, H) == gemm_inp
    assert fwd_sp(B, H) == gemm_rec + ew_f * B * H
    assert bwd_sp(B, H) == gemm_rec + ew_b * B * H           # dh_prev only
    assert proj_bwd(B, I, H, need_dx=False) == gemm_full     # [X|H]^T x dZ
    assert proj_bwd(B, I, H, need_dx=True) == gemm_full + gemm_inp   # + dX


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_backward_split_invariant(cell):
    """data + weight + elementwise must reconstitute the total exactly."""
    _, ew_f, ew_b = CELLS[cell]
    _, bwd, bwd_data, bwd_weight, *_ = FNS[cell]
    assert bwd(B, I, H) == bwd_data(B, I, H) + bwd_weight(B, I, H) + ew_b * B * H


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_hoisting_conserves_flops(cell):
    """Hoisting relocates GEMMs; totals are conserved per step."""
    fwd, bwd, _, bwd_weight, proj, fwd_sp, bwd_sp, proj_bwd = FNS[cell]
    assert proj(B, I, H) + fwd_sp(B, H) == fwd(B, I, H)
    # backward: hoisted dW panel + dX blocks + shrunken step == full step;
    # the recurrent rows' 2·B·H·G·H left the step for the block task
    assert proj_bwd(B, I, H, need_dx=True) + bwd_sp(B, H) == bwd(B, I, H)
    assert proj_bwd(B, I, H, need_dx=True) == bwd_weight(B, I, H) + proj(B, I, H)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_gate_gemm_conservation(cell):
    """The fusion pass's conservation contract: the stacked gate GEMM does
    exactly the arithmetic of the per-gate GEMMs (``fusion="off"``), with
    strict float equality — these splits are definitions, not measurements."""
    g, _, _ = CELLS[cell]
    gate_gemm, _, _ = FUSION_FNS[cell]
    stacked = gate_gemm(B, I, H)
    assert stacked == 2.0 * B * (I + H) * g * H
    assert g * gate_gemm(B, I, H, n_gates=1) == stacked
    # any partial split conserves, not just the per-gate one
    for k in range(1, g + 1):
        assert gate_gemm(B, I, H, n_gates=k) + gate_gemm(B, I, H, n_gates=g - k) \
            == stacked


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fwd_splits_into_gemm_plus_pointwise(cell):
    """The GEMM + pointwise split must reconstitute the forward total
    exactly."""
    fwd, *_ = FNS[cell]
    gate_gemm, fwd_pw, _ = FUSION_FNS[cell]
    assert gate_gemm(B, I, H) + fwd_pw(B, H) == fwd(B, I, H)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_bwd_splits_into_gemms_plus_pointwise(cell):
    """Backward: data GEMM + weight GEMM + pointwise == total, with the
    pointwise share matching the pinned elementwise coefficient."""
    _, ew_f, ew_b = CELLS[cell]
    _, bwd, bwd_data, bwd_weight, *_ = FNS[cell]
    _, fwd_pw, bwd_pw = FUSION_FNS[cell]
    assert fwd_pw(B, H) == ew_f * B * H
    assert bwd_pw(B, H) == ew_b * B * H
    assert bwd_data(B, I, H) + bwd_weight(B, I, H) + bwd_pw(B, H) == bwd(B, I, H)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_weight_gradient_share_scales_with_input(cell):
    """The weight-gradient share must track I+H, not just H."""
    _, _, bwd_data, bwd_weight, *_ = FNS[cell]
    wide = bwd_weight(B, 4 * I, H)
    assert wide == pytest.approx(bwd_data(B, 4 * I, H))
    assert wide > bwd_weight(B, I, H)
