"""Parameter checkpoint save/load."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from tests.conftest import small_spec


def test_save_load_roundtrip(tmp_path):
    spec = small_spec()
    params = BRNNParams.initialize(spec, seed=4)
    path = tmp_path / "ckpt.npz"
    params.save(path)
    loaded = BRNNParams.load(path, spec)
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()))


def test_load_rejects_wrong_spec(tmp_path):
    spec = small_spec()
    BRNNParams.initialize(spec, seed=0).save(tmp_path / "c.npz")
    other = small_spec(hidden_size=7)
    with pytest.raises(ValueError, match="shape"):
        BRNNParams.load(tmp_path / "c.npz", other)


def test_load_rejects_missing_arrays(tmp_path):
    spec = small_spec()
    np.savez(tmp_path / "bad.npz", nothing=np.zeros(3))
    with pytest.raises(ValueError, match="missing"):
        BRNNParams.load(tmp_path / "bad.npz", spec)


def test_checkpoint_resume_training_identical(tmp_path):
    """Training after save/load continues bitwise identically."""
    from repro.core import BParEngine
    from repro.runtime import ThreadedExecutor
    from tests.conftest import make_batch

    spec = small_spec()
    x, labels = make_batch(spec)
    a = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=1),
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    a.train_batch(x, labels, lr=0.1)
    a.params.save(tmp_path / "mid.npz")

    b = BParEngine(
        spec, params=BRNNParams.load(tmp_path / "mid.npz", spec),
        config=ExecutionConfig(executor=ThreadedExecutor(2)),
    )
    la = a.train_batch(x, labels, lr=0.1)
    lb = b.train_batch(x, labels, lr=0.1)
    assert la == lb
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.params.arrays(), b.params.arrays()))
