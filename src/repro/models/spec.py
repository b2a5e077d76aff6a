"""Model specification for deep bidirectional RNNs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.kernels.merge import MERGE_MODES, merge_output_dim


class CellRow(NamedTuple):
    """What the cost model, the builder and the parameter store need to know
    about a cell type beyond its kernels."""

    gates: int  # column blocks of the fused weight matrix: ``W`` is ``(I+H, gates·H)``
    fwd_pointwise: int  # elementwise flops per hidden unit, forward cell update
    bwd_pointwise: int  # the same, backward
    state_arrays: int  # ``(B, H)`` arrays a cell hands to the next step (LSTM: h and c)
    cache_arrays: int  # ``(B, H)`` arrays the forward retains for the backward


#: The only statement of these numbers: parameter shapes, every
#: ``cells.cell_*_flops`` count and the builder's region widths read it.
CELLS = {
    "lstm": CellRow(gates=4, fwd_pointwise=14, bwd_pointwise=30, state_arrays=2, cache_arrays=7),
    "gru": CellRow(gates=3, fwd_pointwise=13, bwd_pointwise=28, state_arrays=1, cache_arrays=5),
}
#: The one list of cells, the paper's two (BLSTM, BGRU): ``BRNNSpec``, the
#: certificate's family matrix, ``analyze --cell`` and ``tools/`` read it.
CELL_TYPES = tuple(CELLS)
HEAD_TYPES = ("many_to_one", "many_to_many")


@dataclass(frozen=True)
class BRNNSpec:
    """Architecture of a deep BRNN (Fig. 1 of the paper).

    ``merge_mode="sum"`` is the evaluation default: it keeps the
    intermediate-layer width equal to ``hidden_size``, which reproduces the
    paper's trainable-parameter counts exactly (e.g. 6.3 M for the
    256/256 6-layer BLSTM).
    """

    cell: str = "lstm"
    input_size: int = 64
    hidden_size: int = 128
    num_layers: int = 2
    merge_mode: str = "sum"
    head: str = "many_to_one"
    num_classes: int = 11
    dtype: np.dtype = np.float32

    def __post_init__(self) -> None:
        if self.cell not in CELL_TYPES:
            raise ValueError(f"cell must be one of {CELL_TYPES}, got {self.cell!r}")
        if self.head not in HEAD_TYPES:
            raise ValueError(f"head must be one of {HEAD_TYPES}, got {self.head!r}")
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(f"merge_mode must be one of {MERGE_MODES}, got {self.merge_mode!r}")
        for name in ("input_size", "hidden_size", "num_layers", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    # -- derived dimensions ---------------------------------------------------

    @property
    def merged_size(self) -> int:
        """Feature width of a merged (forward ⊕ reverse) output."""
        return merge_output_dim(self.merge_mode, self.hidden_size)

    def layer_input_size(self, layer: int) -> int:
        """Input feature width of ``layer`` (layer 0 reads the raw input)."""
        if layer < 0 or layer >= self.num_layers:
            raise ValueError(f"layer {layer} out of range")
        return self.input_size if layer == 0 else self.merged_size

    def cell_param_shapes(self, layer: int) -> Tuple[Tuple[int, int], Tuple[int]]:
        """(W, b) shapes of one direction of ``layer``: the fused weight
        matrix ``(I+H, G·H)`` and its bias ``(G·H,)``."""
        cols = CELLS[self.cell].gates * self.hidden_size
        return (self.layer_input_size(layer) + self.hidden_size, cols), (cols,)

    @property
    def head_input_size(self) -> int:
        return self.merged_size

    def num_parameters(self) -> int:
        """Total trainable parameters (matches the paper's Tables III/IV)."""
        total = 0
        for layer in range(self.num_layers):
            (w_shape, b_shape) = self.cell_param_shapes(layer)
            total += 2 * (w_shape[0] * w_shape[1] + b_shape[0])  # two directions
        total += self.head_input_size * self.num_classes + self.num_classes
        return total

    def describe(self) -> str:
        return (
            f"B{self.cell.upper()} {self.num_layers}L in={self.input_size} "
            f"hid={self.hidden_size} merge={self.merge_mode} {self.head} "
            f"({self.num_parameters()/1e6:.1f}M params)"
        )
