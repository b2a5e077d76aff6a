"""Numerical gradient checks of the full model (the correctness anchor)."""

import numpy as np
import pytest

from repro.models.spec import BRNNSpec
from tests.models.gradcheck import check_gradients

TOL = 1e-3  # normwise over sampled entries; see gradcheck docstring


def run_check(cell, head, merge, layers=3, seq_len=4, batch=2):
    spec = BRNNSpec(
        cell=cell, input_size=5, hidden_size=4, num_layers=layers,
        merge_mode=merge, head=head, num_classes=3, dtype=np.float64,
    )
    rng = np.random.default_rng(11)
    x = rng.standard_normal((seq_len, batch, 5))
    if head == "many_to_one":
        labels = rng.integers(0, 3, size=batch)
    else:
        labels = rng.integers(0, 3, size=(seq_len, batch))
    return check_gradients(spec, x, labels, samples_per_array=5)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("merge", ["sum", "concat", "avg"])
def test_gradcheck_matrix(cell, head, merge):
    errors = run_check(cell, head, merge)
    assert max(errors.values()) < TOL, errors


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_gradcheck_mul_merge_shallow(cell):
    # deep stacks of mul merges collapse activations to ~0 (degenerate
    # numerics, not a gradient bug) — check mul on 2 layers
    errors = run_check(cell, "many_to_one", "mul", layers=2)
    assert max(errors.values()) < TOL, errors


def test_gradcheck_covers_every_array():
    errors = run_check("lstm", "many_to_one", "sum", layers=2)
    names = set(errors)
    assert "layer0.fwd.W" in names and "layer1.rev.b" in names
    assert "head.W" in names and "head.b" in names


def test_gradcheck_upcasts_to_float64():
    spec = BRNNSpec(
        cell="lstm", input_size=4, hidden_size=3, num_layers=2,
        num_classes=3, dtype=np.float32,
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2, 4)).astype(np.float32)
    labels = rng.integers(0, 3, size=2)
    errors = check_gradients(spec, x, labels, samples_per_array=3)
    assert max(errors.values()) < TOL
