"""Mutable per-chunk buffers that B-Par tasks read and write.

One :class:`ChunkState` holds everything a mini-batch chunk's tasks touch:
hidden/cell states per (layer, position), forward caches, merged outputs,
backward accumulators, and per-chunk weight gradients.  Tasks communicate
*only* through these buffers; the dependence annotations in the graph
builder mirror exactly which slots each task reads and writes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec


class ChunkState:
    """Buffers of one mini-batch chunk (functional execution only)."""

    def __init__(self, spec: BRNNSpec, x: np.ndarray, labels: Optional[np.ndarray], training: bool):
        self.spec = spec
        self.x = x
        self.labels = labels
        seq_len, batch = x.shape[0], x.shape[1]
        self.seq_len = seq_len
        self.batch = batch
        L = spec.num_layers

        grid = lambda: [[None] * seq_len for _ in range(L)]
        self.h_f: List[List[Optional[np.ndarray]]] = grid()
        self.c_f: List[List[Optional[np.ndarray]]] = grid()
        self.cache_f: List[list] = grid()
        self.h_r: List[List[Optional[np.ndarray]]] = grid()
        self.c_r: List[List[Optional[np.ndarray]]] = grid()
        self.cache_r: List[list] = grid()
        # Fused input projections (zx) and their backward counterparts (dz),
        # indexed [layer][sequence position]; written only on the fused path.
        self.zx_f: List[List[Optional[np.ndarray]]] = grid()
        self.zx_r: List[List[Optional[np.ndarray]]] = grid()
        self.dz_f: List[List[Optional[np.ndarray]]] = grid()
        self.dz_r: List[List[Optional[np.ndarray]]] = grid()
        self.merged: List[List[Optional[np.ndarray]]] = [
            [None] * seq_len for _ in range(max(L - 1, 0))
        ]
        # Last layer: many_to_one keeps a single slot, many_to_many one per t.
        n_last = 1 if spec.head == "many_to_one" else seq_len
        self.last_merged: List[Optional[np.ndarray]] = [None] * n_last
        self.logits: List[Optional[np.ndarray]] = [None] * n_last
        self.dlogits: List[Optional[np.ndarray]] = [None] * n_last
        self.loss_sums: List[float] = [0.0] * n_last

        # Shared read-only initial state (never mutated by any kernel).
        self.h0 = np.zeros((batch, spec.hidden_size), dtype=spec.dtype)
        self.c0 = self.h0 if spec.cell != "lstm" else np.zeros_like(self.h0)

        if training:
            # What the backward tasks add into (dh, dc, dmerged), one block
            # per kind whose slots are views: a rebound step clears each
            # with one fill.
            H, n_state = spec.hidden_size, 4 if spec.cell == "lstm" else 2
            self.accumulators = [
                np.zeros((L, seq_len, batch, H), dtype=spec.dtype) for _ in range(n_state)
            ]
            self.accumulators.append(
                np.zeros((max(L - 1, 0), seq_len, batch, spec.merged_size), dtype=spec.dtype)
            )
            views = [[list(rows) for rows in block] for block in self.accumulators]
            self.dh_f, self.dh_r = views[:2]
            self.dc_f, self.dc_r = views[2:4] if n_state == 4 else (grid(), grid())
            self.dmerged: List[List[Optional[np.ndarray]]] = views[-1]
            self.dlast_merged: List[Optional[np.ndarray]] = [None] * n_last
            self.grads = BRNNParams.zeros_like(spec)
        else:
            self.grads = None

    def clear_accumulators(self) -> None:
        """Zero what a training step adds into: ``dh``/``dc``/``dmerged``
        and the weight gradients.  Every other slot is assigned by its
        writer before anything reads it."""
        for block in self.accumulators:
            block.fill(0)
        for _, array in self.grads.arrays():
            array.fill(0)

    def layer_input(self, layer: int, pos: int) -> np.ndarray:
        """Input of ``layer`` at sequence position ``pos``."""
        return self.x[pos] if layer == 0 else self.merged[layer - 1][pos]

    def stacked_logits(self) -> np.ndarray:
        """Logits as one array: (B, C) for m2o, (T, B, C) for m2m."""
        if self.spec.head == "many_to_one":
            return self.logits[0]
        return np.stack(self.logits)
