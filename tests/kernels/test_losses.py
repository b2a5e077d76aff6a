"""Unit tests for loss kernels."""

import numpy as np
import pytest

from repro.kernels.losses import softmax_cross_entropy


def test_uniform_logits_loss_is_log_c(rng):
    logits = np.zeros((8, 5))
    labels = rng.integers(0, 5, size=8)
    loss_sum, _ = softmax_cross_entropy(logits, labels)
    assert loss_sum / 8 == pytest.approx(np.log(5))


def test_confident_correct_prediction_low_loss():
    logits = np.array([[10.0, -10.0]])
    loss_sum, _ = softmax_cross_entropy(logits, np.array([0]))
    assert loss_sum < 1e-4


def test_gradient_sums_to_zero_per_row(rng):
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    _, dlogits = softmax_cross_entropy(logits, labels)
    assert np.allclose(dlogits.sum(axis=1), 0, atol=1e-6)


def test_gradient_numerical(rng):
    logits = rng.standard_normal((3, 4))
    labels = rng.integers(0, 4, size=3)
    _, dlogits = softmax_cross_entropy(logits.copy(), labels, grad_scale=1.0)
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            lp = softmax_cross_entropy(
                logits + eps * _onehot(i, j, logits.shape), labels, grad_scale=1.0
            )[0]
            lm = softmax_cross_entropy(
                logits - eps * _onehot(i, j, logits.shape), labels, grad_scale=1.0
            )[0]
            assert (lp - lm) / (2 * eps) == pytest.approx(dlogits[i, j], rel=1e-4, abs=1e-8)


def _onehot(i, j, shape):
    m = np.zeros(shape)
    m[i, j] = 1.0
    return m


def test_grad_scale_applied(rng):
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    _, d1 = softmax_cross_entropy(logits.copy(), labels, grad_scale=1.0)
    _, d2 = softmax_cross_entropy(logits.copy(), labels, grad_scale=0.5)
    assert np.allclose(d2, 0.5 * d1)


def test_default_scale_is_inverse_batch(rng):
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    _, d_default = softmax_cross_entropy(logits.copy(), labels)
    _, d_explicit = softmax_cross_entropy(logits.copy(), labels, grad_scale=0.25)
    assert np.allclose(d_default, d_explicit)


def test_stability_with_huge_logits():
    logits = np.array([[1e4, -1e4, 0.0]], dtype=np.float32)
    loss_sum, d = softmax_cross_entropy(logits, np.array([0]))
    assert np.isfinite(loss_sum) and np.all(np.isfinite(d))
    assert loss_sum == pytest.approx(0.0, abs=1e-4)
