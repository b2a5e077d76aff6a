"""Numerically stable activations, their derivatives, and the pointwise turn.

A cell kernel is one or two GEMMs, which run without the GIL and scale with
the workers, plus a stretch of some twenty small ufunc calls, each of which
drops the GIL and takes it back.  Two threads inside that stretch wake each
other at every call; a thread that sleeps on :data:`pointwise_turn` instead
wakes once, when the stretch beside it is over.  Every cell kernel therefore
runs each run of pointwise work between its GEMMs under ``with
activations.pointwise_turn:`` and every GEMM outside it (``make lint``, rule
``gemm-under-turn``); docs/EXECUTORS.md has the reasoning and the ceiling.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

#: The turn at the interpreter: one lock for the pointwise stretches of all
#: cell kernels on every executor and in the oracle.  A leaf lock: nothing is
#: acquired, called back or waited for under it.  Kernels reach it through
#: the module (``activations.pointwise_turn``), so a forked child's fresh
#: lock below is the one they take.
pointwise_turn = threading.Lock()


def _fresh_turn() -> None:
    """A turn held by another thread at ``fork()`` would reach the child
    locked, with no thread there to release it."""
    global pointwise_turn
    pointwise_turn = threading.Lock()


os.register_at_fork(after_in_child=_fresh_turn)


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic sigmoid, stable for large |x| in float32, written into
    ``out`` when given.

    Computed as ``σ(x) = (1 + tanh(x/2)) / 2`` — algebraically exact, never
    overflows (``tanh`` saturates instead of ``exp`` exploding), and runs as
    three vectorised ufunc passes with no data-dependent branching, which
    keeps it off the cell tasks' critical path.
    """
    half = np.asarray(0.5, dtype=x.dtype)
    out = x * half if out is None else np.multiply(x, half, out=out)
    np.tanh(out, out=out)
    out += np.asarray(1.0, dtype=x.dtype)
    out *= half
    return out


def tanh(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Hyperbolic tangent, written into ``out`` when given (``out=None``
    is not passed on: it adds ~0.1 us to a ~0.5 us call on a small array)."""
    return np.tanh(x) if out is None else np.tanh(x, out=out)


def cache_field(slot: Optional[np.ndarray], k: int) -> Optional[np.ndarray]:
    """Field ``k`` of a cell's cache slot ``(..., F, B, H)``, a contiguous
    ``(B, H)`` array per cell: an ``out`` target of a forward body (``None``
    without a slot)."""
    return None if slot is None else slot[..., k, :, :]


@lru_cache(maxsize=64)
def _gate_rows(gates: str, hidden: int, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(scale, shift)`` row vectors of :func:`activate_gates_`."""
    scale = np.repeat([0.5 if g == "s" else 1.0 for g in gates], hidden).astype(dtype)
    shift = np.repeat([1.0 if g == "s" else -0.0 for g in gates], hidden).astype(dtype)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def activate_gates_(z: np.ndarray, gates: str) -> np.ndarray:
    """Activate a whole stacked pre-activation buffer in place and return it.

    ``z (..., B, len(gates)·H)`` holds one column block per gate; ``gates`` names
    each block's activation, ``"s"`` for :func:`sigmoid` and ``"t"`` for
    :func:`tanh` (an LSTM's ``[i, f, g, o]`` is ``"ssts"``).  Four ufunc
    passes over the buffer whatever the gate count, and every element is
    bitwise what the per-gate function returns: a sigmoid column runs
    ``((x·½) → tanh → +1 → ·½)`` exactly as :func:`sigmoid` does, a tanh
    column is scaled by 1 and shifted by ``-0.0``, the one addend that leaves
    every value, ``tanh(-0.0) = -0.0`` included, as it is.
    """
    scale, shift = _gate_rows(gates, z.shape[-1] // len(gates), z.dtype)
    z *= scale
    np.tanh(z, out=z)
    z += shift
    z *= scale
    return z


def dsigmoid(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid expressed in its *output* y = σ(x)."""
    return y * (1.0 - y)


def dtanh(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh expressed in its *output* y = tanh(x)."""
    return 1.0 - y * y
