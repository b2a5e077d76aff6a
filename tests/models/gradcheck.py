"""Numerical gradient checking of the reference implementation (a test helper)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.models.params import BRNNParams
from repro.models.reference import reference_forward, reference_loss_and_grads
from repro.models.spec import BRNNSpec
from repro.kernels.losses import softmax_cross_entropy


def _loss_only(spec: BRNNSpec, params: BRNNParams, x: np.ndarray, labels: np.ndarray) -> float:
    logits, _ = reference_forward(spec, params, x)
    if spec.head == "many_to_one":
        loss_sum, _ = softmax_cross_entropy(logits, labels)
        return loss_sum / logits.shape[0]
    seq_len, batch = logits.shape[0], logits.shape[1]
    total = 0.0
    for t in range(seq_len):
        ls, _ = softmax_cross_entropy(logits[t], labels[t])
        total += ls
    return total / (seq_len * batch)


def check_gradients(
    spec: BRNNSpec,
    x: np.ndarray,
    labels: np.ndarray,
    seed: int = 0,
    eps: float = 1e-5,
    samples_per_array: int = 8,
) -> Dict[str, float]:
    """Compare analytic gradients with central differences.

    Uses float64 regardless of the spec's dtype (finite differences are
    hopeless in float32).  Checks ``samples_per_array`` deterministic
    entries of every parameter array and returns, per array name, the
    *normwise* relative error ``‖num − ana‖₂ / max(‖num‖₂, ‖ana‖₂)`` over
    the sampled entries — per-entry ratios explode on entries below the
    central-difference noise floor (≈1e-10 for eps=1e-5) even when the
    analytic gradient is exact.
    """
    if spec.dtype != np.float64:
        spec = BRNNSpec(
            cell=spec.cell,
            input_size=spec.input_size,
            hidden_size=spec.hidden_size,
            num_layers=spec.num_layers,
            merge_mode=spec.merge_mode,
            head=spec.head,
            num_classes=spec.num_classes,
            dtype=np.float64,
        )
    x = x.astype(np.float64)
    params = BRNNParams.initialize(spec, seed=seed)
    _, _, grads = reference_loss_and_grads(spec, params, x, labels)

    rng = np.random.default_rng(seed + 1)
    errors: Dict[str, float] = {}
    grad_by_name = dict(grads.arrays())
    for name, array in params.arrays():
        flat = array.reshape(-1)
        gflat = grad_by_name[name].reshape(-1)
        n = min(samples_per_array, flat.size)
        idx = rng.choice(flat.size, size=n, replace=False)
        numeric = np.empty(n)
        analytic = np.empty(n)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            lp = _loss_only(spec, params, x, labels)
            flat[i] = orig - eps
            lm = _loss_only(spec, params, x, labels)
            flat[i] = orig
            numeric[j] = (lp - lm) / (2 * eps)
            analytic[j] = gflat[i]
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-10)
        errors[name] = float(np.linalg.norm(numeric - analytic) / denom)
    return errors
