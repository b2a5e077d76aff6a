"""Merge operations combining forward and reverse outputs — Equation (11).

``y_t = merge(H_t, H̃_t)`` with the modes the paper lists: summation,
multiplication, average, or concatenation.  ``sum`` is the default used by
the evaluation (it keeps intermediate-layer widths equal to the hidden
size, which is what reproduces the paper's trainable-parameter counts).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

MERGE_MODES = ("sum", "mul", "avg", "concat")


def merge_output_dim(mode: str, hidden_size: int) -> int:
    """Feature width of the merged output for a given hidden size."""
    _check(mode)
    return 2 * hidden_size if mode == "concat" else hidden_size


def merge_forward(
    a: np.ndarray, b: np.ndarray, mode: str, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Combine forward output ``a`` and reverse output ``b``, into ``out``
    when given (the same ufuncs either way, so the same bits)."""
    _check(mode)
    if mode == "concat":
        return np.concatenate([a, b], axis=-1, out=out)
    if mode == "mul":
        return np.multiply(a, b, out=out)
    y = np.add(a, b, out=out)
    if mode == "avg":
        y *= np.asarray(0.5, dtype=a.dtype)
    return y


def merge_backward(
    dy: np.ndarray, a: np.ndarray, b: np.ndarray, mode: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients (da, db) of ``merge_forward`` given upstream ``dy``."""
    _check(mode)
    if mode == "sum":
        return dy, dy
    if mode == "mul":
        return dy * b, dy * a
    if mode == "avg":
        half = dy * np.asarray(0.5, dtype=dy.dtype)
        return half, half
    width = a.shape[-1]
    return dy[..., :width], dy[..., width:]


def merge_flops(mode: str, batch: int, hidden_size: int) -> float:
    """Forward flop count of one merge (concat moves bytes, no flops)."""
    _check(mode)
    if mode == "concat":
        return 0.0
    factor = 2.0 if mode == "avg" else 1.0
    return factor * batch * hidden_size


def _check(mode: str) -> None:
    if mode not in MERGE_MODES:
        raise ValueError(f"unknown merge mode {mode!r}; options: {MERGE_MODES}")
