"""Unit tests for weight initializers."""

import numpy as np

from repro.kernels.initializers import glorot_uniform, zeros


def test_glorot_bounds_and_determinism():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    w1 = glorot_uniform(rng1, (64, 32))
    w2 = glorot_uniform(rng2, (64, 32))
    limit = np.sqrt(6.0 / (64 + 32))
    assert np.array_equal(w1, w2)
    assert np.all(np.abs(w1) <= limit)
    assert w1.dtype == np.float32


def test_glorot_scale_shrinks_with_fan():
    rng = np.random.default_rng(0)
    small = glorot_uniform(rng, (4, 4))
    big = glorot_uniform(rng, (1024, 1024))
    assert np.abs(big).max() < np.abs(small).max()


def test_zeros():
    z = zeros((3, 4))
    assert z.shape == (3, 4) and z.dtype == np.float32 and not z.any()
