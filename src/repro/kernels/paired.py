"""Two directions' weights as one GEMM operand: the paired cell step.

The forward and the reverse cell at step ``s`` are independent.  Stacked
along a leading axis of two (``h_prev (2, B, H)``, ``zx (2, B, G·H)``), their
pointwise stretch is one ufunc pass over both (Hwang & Sung,
arXiv:1503.02852), and with the weights a :class:`DirectionPair` a cell
kernel's one body runs on the stack: ``h_prev @ pair[rows, cols]`` writes
each direction's product with ``np.matmul(..., out=z[d])`` into one
``(2, B, n)`` buffer (Appleyard et al., arXiv:1604.01946), with no stacked
copy of the weights.  Each half is the single step's BLAS call on the same
operands, so a paired step is bitwise two single steps.
"""

from __future__ import annotations

import numpy as np


class DirectionPair:
    """A layer's forward and reverse weights, sliced together and multiplied
    from the left by a stack."""

    #: ``ndarray @ pair`` defers to :meth:`__rmatmul__` instead of coercing
    __array_ufunc__ = None
    __slots__ = ("arrays",)

    def __init__(self, fwd: np.ndarray, rev: np.ndarray) -> None:
        self.arrays = (fwd, rev)

    @property
    def shape(self) -> tuple:
        return self.arrays[0].shape

    def __getitem__(self, key) -> "DirectionPair":
        fwd, rev = self.arrays
        return DirectionPair(fwd[key], rev[key])

    def __rmatmul__(self, a) -> np.ndarray:
        """``a @ pair`` → ``(2, B, N)``: direction ``d``'s rows ``a[d]`` times
        its own weights, ``a`` a ``(2, B, K)`` stack or a pair of ``(B, K)``
        arrays (inputs need no stacking copy)."""
        fwd, rev = self.arrays
        out = np.empty((2, a[0].shape[-2], fwd.shape[-1]), dtype=a[0].dtype)
        np.matmul(a[0], fwd, out=out[0])
        np.matmul(a[1], rev, out=out[1])
        return out
