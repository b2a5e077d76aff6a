"""BGRU gradients: B-Par against the sequential oracle, then a checkpoint.

The paper evaluates the bidirectional GRU beside the BLSTM (Table IV,
Fig. 8).  This script takes one many-to-many BGRU batch and

* computes its loss, logits and full-batch gradient on the task graph
  (``BParEngine.loss_and_grads``, two data-parallel chunks, weights left
  as they were) and on the sequential oracle, whose GRU steps are the
  per-step kernels ``gru_forward_step``/``gru_backward_step``
  (``repro.models.reference.reference_loss_and_grads``), and checks that
  they agree;
* takes a few momentum-SGD steps with the velocity held here, on the
  engine's own parameters, from those gradients;
* writes the trained parameters to an ``.npz`` checkpoint in a temp dir,
  loads them into a fresh engine and checks that they are the trained
  weights, not the initial ones, and compute the same loss, bit for bit.

    python examples/bgru_gradients.py
"""

import os
import tempfile

import numpy as np

from repro import BParEngine, BRNNParams, BRNNSpec, ExecutionConfig
from repro.models.reference import reference_loss_and_grads


def main():
    spec = BRNNSpec(
        cell="gru", input_size=12, hidden_size=24, num_layers=2, merge_mode="concat",
        head="many_to_many", num_classes=5,
    )
    print(f"model: {spec.describe()}")
    rng = np.random.default_rng(0)
    seq_len, batch = 9, 6
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(np.float32)
    labels = rng.integers(0, spec.num_classes, size=(seq_len, batch))
    config = ExecutionConfig(mbs=2)
    engine = BParEngine(spec, BRNNParams.initialize(spec, seed=3), config=config)

    loss, logits, grads = engine.loss_and_grads(x, labels)
    ref_loss, ref_logits, ref_grads = reference_loss_and_grads(spec, engine.params, x, labels)
    worst = max(
        float(np.max(np.abs(a - b)))
        for (_, a), (_, b) in zip(grads.arrays(), ref_grads.arrays())
    )
    print(f"\nB-Par loss {loss:.6f}   oracle loss {ref_loss:.6f}")
    print(f"largest gradient difference over {sum(1 for _ in grads.arrays())} arrays: {worst:.2e}")
    assert np.isclose(loss, ref_loss, rtol=1e-6)
    assert np.allclose(logits, ref_logits, rtol=1e-5, atol=1e-6)
    assert grads.allclose(ref_grads, rtol=1e-4, atol=1e-6), "gradients differ from the oracle"

    print("\nmomentum SGD, the velocity held by the caller:")
    initial = engine.params.copy()
    velocity = BRNNParams.zeros_like(spec)
    for step in range(6):
        loss, _, grads = engine.loss_and_grads(x, labels)
        velocity.add_scaled_(velocity, -0.1)  # v <- 0.9 v + g
        velocity.add_scaled_(grads, 1.0)
        engine.params.add_scaled_(velocity, -0.5)
        print(f"  step {step}  loss {loss:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bgru.npz")
        engine.params.save(path)
        loaded = BRNNParams.load(path, spec)
    assert loaded.allclose(engine.params, rtol=0, atol=0)
    assert not loaded.allclose(initial), "the checkpoint holds the initial weights"
    again, _, _ = BParEngine(spec, loaded, config=config).loss_and_grads(x, labels)
    after, _, _ = engine.loss_and_grads(x, labels)
    print(f"\ncheckpoint: {loaded.nbytes()} bytes of parameters")
    print(f"round trip: loss {after:.6f} before, {again:.6f} after reloading")
    assert again == after, "a reloaded checkpoint computes another loss"


if __name__ == "__main__":
    main()
