"""Parameter containers.

Following §II and §III of the paper, weights and biases are allocated
*once per layer and direction* and shared by every unrolled timestep —
the working-set optimisation all frameworks apply.  A layer's two
directions are one allocation, ``W (2, I+H, G·H)`` and ``b (2, G·H)``, so
the paired forward multiplies both at once with no copy; ``fwd``/``rev``
are its ``[0]``/``[1]`` views.  Gradients use the same container with
zero-initialised arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro.kernels.initializers import glorot_uniform, zeros
from repro.models.spec import BRNNSpec


@dataclass
class DirectionParams:
    """Fused weight matrix and bias of one direction of one layer: views
    into its :class:`LayerParams` stack."""

    W: np.ndarray
    b: np.ndarray


@dataclass
class LayerParams:
    """Both directions of one BRNN layer as one stack, ``W (2, I+H, G·H)``
    and ``b (2, G·H)``; ``fwd``/``rev`` are its ``[0]``/``[1]`` views."""

    W: np.ndarray
    b: np.ndarray
    fwd: DirectionParams = field(init=False, repr=False)
    rev: DirectionParams = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.fwd = DirectionParams(self.W[0], self.b[0])
        self.rev = DirectionParams(self.W[1], self.b[1])

    def rebind(self, fn) -> None:
        """Pass the stack through ``fn`` (which returns an array sharing
        its memory) and rebuild the direction views from what it returns."""
        W, b = fn(self.W), fn(self.b)
        if W is not self.W or b is not self.b:
            self.W, self.b = W, b
            self.__post_init__()

    def direction(self, name: str) -> DirectionParams:
        if name == "fwd":
            return self.fwd
        if name == "rev":
            return self.rev
        raise ValueError(f"direction must be 'fwd' or 'rev', got {name!r}")


@dataclass
class HeadParams:
    """Dense output head."""

    W: np.ndarray
    b: np.ndarray


class BRNNParams:
    """All trainable arrays of a BRNN (or their gradients)."""

    def __init__(self, spec: BRNNSpec, layers: List[LayerParams], head: HeadParams):
        self.spec = spec
        self.layers = layers
        self.head = head

    # -- constructors -----------------------------------------------------------

    @classmethod
    def initialize(cls, spec: BRNNSpec, seed: int = 0) -> "BRNNParams":
        """Glorot-initialised weights, zero biases, deterministic in ``seed``."""
        rng = np.random.default_rng(seed)
        layers = []
        for layer in range(spec.num_layers):
            w_shape, b_shape = spec.cell_param_shapes(layer)
            W = np.stack([glorot_uniform(rng, w_shape, spec.dtype) for _ in range(2)])
            layers.append(LayerParams(W, zeros((2, *b_shape), spec.dtype)))
        head = HeadParams(
            W=glorot_uniform(rng, (spec.head_input_size, spec.num_classes), spec.dtype),
            b=zeros((spec.num_classes,), spec.dtype),
        )
        return cls(spec, layers, head)

    @classmethod
    def zeros_like(cls, spec: BRNNSpec) -> "BRNNParams":
        """Zero-filled container of the same structure (gradient buffer)."""
        layers = []
        for layer in range(spec.num_layers):
            w_shape, b_shape = spec.cell_param_shapes(layer)
            layers.append(
                LayerParams(zeros((2, *w_shape), spec.dtype), zeros((2, *b_shape), spec.dtype))
            )
        head = HeadParams(
            W=zeros((spec.head_input_size, spec.num_classes), spec.dtype),
            b=zeros((spec.num_classes,), spec.dtype),
        )
        return cls(spec, layers, head)

    # -- array-level helpers -------------------------------------------------------

    def arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(name, array)`` for every trainable array, fixed order."""
        for i, layer in enumerate(self.layers):
            yield f"layer{i}.fwd.W", layer.fwd.W
            yield f"layer{i}.fwd.b", layer.fwd.b
            yield f"layer{i}.rev.W", layer.rev.W
            yield f"layer{i}.rev.b", layer.rev.b
        yield "head.W", self.head.W
        yield "head.b", self.head.b

    def copy(self) -> "BRNNParams":
        out = BRNNParams.zeros_like(self.spec)
        for (_, dst), (_, src) in zip(out.arrays(), self.arrays()):
            dst[...] = src
        return out

    def add_scaled_(self, other: "BRNNParams", alpha: float) -> None:
        """``self += alpha * other`` in place (SGD step / gradient reduce)."""
        for (_, dst), (_, src) in zip(self.arrays(), other.arrays()):
            dst += np.asarray(alpha, dtype=dst.dtype) * src

    def allclose(self, other: "BRNNParams", **kwargs) -> bool:
        return all(
            np.allclose(a, b, **kwargs)
            for (_, a), (_, b) in zip(self.arrays(), other.arrays())
        )

    def nbytes(self) -> int:
        return sum(a.nbytes for _, a in self.arrays())

    # -- checkpointing ------------------------------------------------------------

    def save(self, path) -> None:
        """Write all trainable arrays to an ``.npz`` checkpoint."""
        np.savez(path, **{name: array for name, array in self.arrays()})

    @classmethod
    def load(cls, path, spec: BRNNSpec) -> "BRNNParams":
        """Load a checkpoint written by :meth:`save` for the same spec."""
        out = cls.zeros_like(spec)
        with np.load(path) as data:
            for name, array in out.arrays():
                if name not in data:
                    raise ValueError(f"checkpoint missing array {name!r}")
                stored = data[name]
                if stored.shape != array.shape:
                    raise ValueError(
                        f"checkpoint array {name!r} has shape {stored.shape}, "
                        f"spec expects {array.shape}"
                    )
                array[...] = stored
        return out
