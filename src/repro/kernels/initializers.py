"""Weight initializers (deterministic under a caller-supplied Generator)."""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """Zero initialization (biases)."""
    return np.zeros(shape, dtype=dtype)
