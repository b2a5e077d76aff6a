"""Property-based tests of the numerical kernels (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels.activations import dsigmoid, dtanh, sigmoid
from repro.kernels.gru import gru_forward_step
from repro.kernels.initializers import glorot_uniform
from repro.kernels.lstm import lstm_forward_step
from repro.kernels.losses import softmax_cross_entropy
from repro.kernels.merge import MERGE_MODES, merge_backward, merge_forward
from repro.models.spec import BRNNSpec

finite = dict(allow_nan=False, allow_infinity=False)


def farrays(shape, lo=-50, hi=50):
    return arrays(np.float64, shape, elements=st.floats(lo, hi, **finite))


@given(farrays((3, 7), -500, 500))
@settings(max_examples=50)
def test_sigmoid_always_in_unit_interval(x):
    y = sigmoid(x)
    assert np.all((y >= 0) & (y <= 1))
    assert np.all(np.isfinite(y))


@given(farrays((2, 5), -30, 30))
@settings(max_examples=50)
def test_sigmoid_monotone(x):
    y1 = sigmoid(x)
    y2 = sigmoid(x + 0.5)
    assert np.all(y2 >= y1)


@given(farrays((4, 3), -20, 20))
@settings(max_examples=50)
def test_derivative_ranges(x):
    assert np.all(dsigmoid(sigmoid(x)) <= 0.25 + 1e-12)
    assert np.all(dtanh(np.tanh(x)) <= 1.0 + 1e-12)
    assert np.all(dsigmoid(sigmoid(x)) >= 0)


@st.composite
def merge_operands(draw):
    b = draw(st.integers(1, 4))
    h = draw(st.integers(1, 6))
    a = draw(farrays((b, h), -10, 10))
    c = draw(farrays((b, h), -10, 10))
    mode = draw(st.sampled_from(MERGE_MODES))
    return a, c, mode


@given(merge_operands())
@settings(max_examples=60)
def test_merge_symmetry_properties(operands):
    a, b, mode = operands
    y_ab = merge_forward(a, b, mode)
    y_ba = merge_forward(b, a, mode)
    if mode in ("sum", "mul", "avg"):
        assert np.allclose(y_ab, y_ba)  # commutative modes
    else:
        assert np.array_equal(y_ab[:, : a.shape[1]], a)


@given(merge_operands())
@settings(max_examples=60)
def test_merge_backward_shape_and_linearity(operands):
    a, b, mode = operands
    y = merge_forward(a, b, mode)
    dy = np.ones_like(y)
    da, db = merge_backward(dy, a, b, mode)
    assert da.shape == a.shape and db.shape == b.shape
    # gradient is linear in dy
    da2, db2 = merge_backward(2 * dy, a, b, mode)
    assert np.allclose(da2, 2 * da) and np.allclose(db2, 2 * db)


@st.composite
def cell_inputs(draw):
    b = draw(st.integers(1, 3))
    i = draw(st.integers(1, 4))
    h = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, i)) * draw(st.floats(0.1, 5.0, **finite))
    h0 = rng.standard_normal((b, h))
    c0 = rng.standard_normal((b, h))
    return x, h0, c0, rng


def _param_shapes(cell, x, h0):
    spec = BRNNSpec(cell=cell, input_size=x.shape[1], hidden_size=h0.shape[1], num_layers=1)
    return spec.cell_param_shapes(0)


@given(cell_inputs())
@settings(max_examples=40)
def test_lstm_state_bounded(inp):
    """|h| < 1 always (o·tanh(c)); c bounded by |c0| + steps."""
    x, h0, c0, rng = inp
    (ws, bs) = _param_shapes("lstm", x, h0)
    W = glorot_uniform(rng, ws, np.float64)
    b = np.zeros(bs)
    h, c, _ = lstm_forward_step(x, h0, c0, W, b)
    assert np.all(np.abs(h) < 1.0)
    assert np.all(np.abs(c) <= np.abs(c0) + 1.0 + 1e-9)


@given(cell_inputs())
@settings(max_examples=40)
def test_gru_state_bounded_by_inputs(inp):
    """H_t is a convex combination of H̄_t ∈ (-1,1) and H_{t-1}."""
    x, h0, _, rng = inp
    (ws, bs) = _param_shapes("gru", x, h0)
    W = glorot_uniform(rng, ws, np.float64)
    b = np.zeros(bs)
    h, _ = gru_forward_step(x, h0, W, b)
    bound = np.maximum(np.abs(h0), 1.0)
    assert np.all(np.abs(h) <= bound + 1e-12)


@st.composite
def logits_and_labels(draw):
    b = draw(st.integers(1, 6))
    c = draw(st.integers(2, 5))
    logits = draw(farrays((b, c), -30, 30))
    labels = np.asarray([draw(st.integers(0, c - 1)) for _ in range(b)])
    return logits, labels


@given(logits_and_labels())
@settings(max_examples=60)
def test_cross_entropy_nonnegative_and_grad_rows_sum_zero(data):
    logits, labels = data
    loss_sum, dlogits = softmax_cross_entropy(logits, labels, grad_scale=1.0)
    assert loss_sum >= -1e-9
    assert np.allclose(dlogits.sum(axis=1), 0, atol=1e-8)
    # gradient bounded: each entry in [-1, 1]
    assert np.all(np.abs(dlogits) <= 1 + 1e-9)


@given(logits_and_labels(), st.floats(-5, 5, **finite))
@settings(max_examples=40)
def test_cross_entropy_shift_invariance(data, shift):
    logits, labels = data
    l1, _ = softmax_cross_entropy(logits.copy(), labels)
    l2, _ = softmax_cross_entropy(logits + shift, labels)
    assert np.isclose(l1, l2, atol=1e-6)
