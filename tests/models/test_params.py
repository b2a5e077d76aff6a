"""Unit tests for parameter containers."""

import numpy as np
import pytest

from repro.models.params import BRNNParams
from tests.conftest import small_spec


def test_initialize_deterministic():
    spec = small_spec()
    p1 = BRNNParams.initialize(spec, seed=9)
    p2 = BRNNParams.initialize(spec, seed=9)
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()))
    p3 = BRNNParams.initialize(spec, seed=10)
    assert any(not np.array_equal(a, b) for (_, a), (_, b) in zip(p1.arrays(), p3.arrays()))


def test_shapes_match_spec():
    spec = small_spec(num_layers=2)
    p = BRNNParams.initialize(spec)
    w_shape, b_shape = spec.cell_param_shapes(0)
    assert p.layers[0].fwd.W.shape == w_shape
    assert p.layers[0].rev.b.shape == b_shape
    assert p.head.W.shape == (spec.head_input_size, spec.num_classes)


def test_num_parameters_consistent_with_spec():
    spec = small_spec()
    p = BRNNParams.initialize(spec)
    assert sum(a.size for _, a in p.arrays()) == spec.num_parameters()


def test_zeros_like():
    spec = small_spec()
    z = BRNNParams.zeros_like(spec)
    assert all(not a.any() for _, a in z.arrays())


def test_biases_start_zero():
    p = BRNNParams.initialize(small_spec())
    assert not p.layers[0].fwd.b.any()
    assert not p.head.b.any()


def test_copy_is_deep():
    p = BRNNParams.initialize(small_spec())
    c = p.copy()
    c.layers[0].fwd.W[0, 0] += 1
    assert p.layers[0].fwd.W[0, 0] != c.layers[0].fwd.W[0, 0]


def test_add_scaled():
    spec = small_spec()
    p = BRNNParams.zeros_like(spec)
    g = BRNNParams.initialize(spec, seed=1)
    p.add_scaled_(g, -0.5)
    for (_, a), (_, b) in zip(p.arrays(), g.arrays()):
        assert np.allclose(a, -0.5 * b)


def test_allclose():
    spec = small_spec()
    p = BRNNParams.initialize(spec, seed=2)
    q = p.copy()
    assert p.allclose(q)
    q.head.W[0, 0] += 1.0
    assert not p.allclose(q)


def test_direction_accessor():
    p = BRNNParams.initialize(small_spec())
    layer = p.layers[0]
    assert layer.direction("fwd") is layer.fwd
    assert layer.direction("rev") is layer.rev
    with pytest.raises(ValueError):
        layer.direction("sideways")


def test_nbytes_positive():
    p = BRNNParams.initialize(small_spec())
    assert p.nbytes() == sum(a.nbytes for _, a in p.arrays())


def test_arrays_order_stable():
    p = BRNNParams.initialize(small_spec())
    names = [n for n, _ in p.arrays()]
    assert names[0] == "layer0.fwd.W"
    assert names[-2:] == ["head.W", "head.b"]
