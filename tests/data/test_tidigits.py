"""Unit tests for the synthetic TIDIGITS generator."""

import numpy as np
import pytest

from repro.data.tidigits import NUM_DIGITS, SyntheticTidigits, TidigitsConfig


def test_vocabulary_size():
    ds = SyntheticTidigits()
    assert ds.num_classes == NUM_DIGITS == 11


def test_generate_deterministic():
    ds = SyntheticTidigits(seed=4)
    xs1, ys1 = ds.generate(10, seed=2)
    xs2, ys2 = ds.generate(10, seed=2)
    assert np.array_equal(ys1, ys2)
    assert all(np.array_equal(a, b) for a, b in zip(xs1, xs2))
    _, ys3 = ds.generate(10, seed=3)
    assert not np.array_equal(ys1, ys3)


def test_variable_lengths_within_bounds():
    cfg = TidigitsConfig(min_digits=2, max_digits=5, frames_per_digit_min=6, frames_per_digit_max=9)
    ds = SyntheticTidigits(cfg, seed=0)
    xs, _ = ds.generate(50)
    lengths = {x.shape[0] for x in xs}
    assert min(lengths) >= 2 * 6
    assert max(lengths) <= 5 * 9
    assert len(lengths) > 1  # genuinely variable


def test_feature_dimension():
    ds = SyntheticTidigits()
    xs, _ = ds.generate(3)
    assert all(x.shape[1] == ds.num_features for x in xs)
    assert all(x.dtype == np.float32 for x in xs)


def test_labels_in_range():
    ds = SyntheticTidigits()
    _, ys = ds.generate(100)
    assert ys.min() >= 0 and ys.max() < NUM_DIGITS
    assert len(set(ys.tolist())) > 3  # label variety


def test_digit_templates_distinguishable():
    """Mean frames of different digits differ (the task is learnable)."""
    ds = SyntheticTidigits(TidigitsConfig(min_digits=1, max_digits=1, noise_std=0.0), seed=1)
    xs, ys = ds.generate(200)
    means = {}
    for x, y in zip(xs, ys):
        means.setdefault(int(y), []).append(x.mean(axis=0))
    keys = sorted(means)[:4]
    for a in keys:
        for b in keys:
            if a < b:
                da = np.mean(means[a], axis=0)
                db = np.mean(means[b], axis=0)
                assert np.abs(da - db).max() > 0.01


def test_signal_present_over_noise():
    ds = SyntheticTidigits(seed=0)
    xs, _ = ds.generate(10)
    assert all(np.abs(x).max() > 0.5 for x in xs)
