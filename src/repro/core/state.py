"""Mutable per-chunk buffers that B-Par tasks read and write.

One :class:`ChunkState` holds everything a mini-batch chunk's tasks touch:
hidden/cell states per (layer, position), forward caches, merged outputs,
backward accumulators, and per-chunk weight gradients.  Tasks communicate
*only* through these buffers; the dependence annotations in the graph
builder mirror exactly which slots each task reads and writes.

The slot lists are named once, in three groups by how a slot is
addressed: :attr:`ChunkState.PER_DIRECTION` (``state.h[direction][layer]
[step]``, the direction ``"fwd"`` or ``"rev"``), :attr:`ChunkState.
PER_LAYER` (``state.merged[layer][pos]``) and :attr:`ChunkState.PER_SLOT`
(``state.logits[slot]``).  :meth:`ChunkState.slot` resolves an address and
:meth:`ChunkState.slot_lists` walks every list, so a list added to a group
is seen by every reader of the storage.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec

DIRECTIONS = ("fwd", "rev")


class ChunkState:
    """Buffers of one mini-batch chunk (functional execution only)."""

    #: per-(layer, direction) slots indexed by chain step; ``zx``/``dz`` (the
    #: hoisted input projections and their gradients) by sequence position.
    #: ``dh``/``dc`` are what a training step adds into.
    PER_DIRECTION = ("h", "c", "cache", "zx", "dz", "dh", "dc")
    #: per-layer slots indexed by sequence position, layers ``0 .. L-2``
    PER_LAYER = ("merged", "dmerged")
    #: the last layer's merges and the head's slots: one for many_to_one,
    #: one per timestep for many_to_many
    PER_SLOT = ("last_merged", "logits", "dlogits", "dlast_merged")

    def __init__(
        self, spec: BRNNSpec, x: np.ndarray, labels: Optional[np.ndarray], training: bool
    ):
        self.spec = spec
        self.x = x
        self.labels = labels
        seq_len, batch = x.shape[0], x.shape[1]
        self.seq_len = seq_len
        self.batch = batch
        L = spec.num_layers
        n_last = 1 if spec.head == "many_to_one" else seq_len
        for name in self.PER_DIRECTION:
            setattr(self, name, {d: [[None] * seq_len for _ in range(L)] for d in DIRECTIONS})
        for name in self.PER_LAYER:
            setattr(self, name, [[None] * seq_len for _ in range(max(L - 1, 0))])
        for name in self.PER_SLOT:
            setattr(self, name, [None] * n_last)
        self.loss_sums: List[float] = [0.0] * n_last

        # Shared read-only initial state (never mutated by any kernel).
        self.h0 = np.zeros((batch, spec.hidden_size), dtype=spec.dtype)
        self.c0 = self.h0 if spec.cell != "lstm" else np.zeros_like(self.h0)

        self.grads = BRNNParams.zeros_like(spec) if training else None
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
            self.dh = dict(zip(DIRECTIONS, views[:2]))
            if n_state == 4:
                self.dc = dict(zip(DIRECTIONS, views[2:4]))
            self.dmerged = views[-1]

    def slot(self, name: str, *where) -> tuple:
        """``(list, index)`` of one slot of list ``name``, addressed
        ``(layer, direction, index)``, ``(layer, pos)`` or ``(slot,)``."""
        rows = getattr(self, name)
        *outer, index = where
        if len(outer) == 2:
            layer, direction = outer
            rows = rows[direction][layer]
        elif outer:
            rows = rows[outer[0]]
        return rows, index

    def slot_lists(self) -> Iterator[list]:
        """Every list of slots of this chunk, each once."""
        for name in self.PER_DIRECTION:
            for grid in getattr(self, name).values():
                yield from grid
        for name in self.PER_LAYER:
            yield from getattr(self, name)
        for name in self.PER_SLOT:
            yield getattr(self, name)

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
