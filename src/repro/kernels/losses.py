"""Loss kernels with fused gradients."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    grad_scale: Optional[float] = None,
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch, with gradient.

    ``logits (B, C)``, ``labels (B,)`` integer class ids.  Returns
    ``(loss_sum, dlogits)`` where ``dlogits`` is scaled by ``grad_scale``
    (default ``1/B``).  Returning the *sum* (not the mean) keeps mini-batch
    chunks composable: the data-parallel reduction adds chunk sums and
    divides once by the full batch size.
    """
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    idx = (np.arange(batch), labels)
    # log-softmax evaluated only at the label entries
    losses = np.log(exp.sum(axis=1)) - shifted[idx]
    loss_sum = float(losses.sum())

    scale = (1.0 / batch) if grad_scale is None else grad_scale
    dlogits = probs
    dlogits[idx] -= 1.0
    dlogits *= np.asarray(scale, dtype=logits.dtype)
    return loss_sum, dlogits
