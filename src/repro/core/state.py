"""Mutable per-chunk buffers that B-Par tasks read and write.

One :class:`ChunkState` holds everything a mini-batch chunk's tasks touch:
hidden/cell states, forward caches, merged outputs, backward accumulators,
and per-chunk weight gradients.  Tasks communicate *only* through these
buffers; the dependence annotations in the graph builder mirror exactly
which slots each task reads and writes.

Every slot is a view of one block allocated with the chunk, time-major as
in Appleyard et al. (arXiv:1604.01946), so a task writes its slots in place,
a run allocates no state and no payload rebinds storage.  Per layer and
direction (:attr:`ChunkState.CHAINS`) a block is ``(T, 2, B, ·)``,
``state.h[layer][step, d]`` with ``d`` 0 for the forward chain and 1 for
the reverse, both in chain-step order (the reverse chain's step ``u`` is
position ``T-1-u``), so a paired step's two states are ``h[layer][step]``;
the cell caches' block ``acts`` is ``(T, 2, F, B, H)``, one contiguous
``(B, H)`` array per field (:data:`~repro.models.cells.CACHE_FIELDS`).  Per
layer (:attr:`~ChunkState.LAYERS`) a block is ``(T, B, M)``, by position;
the head's (:attr:`~ChunkState.SLOTS`) is ``(n_last, B, ·)``.  A block a
chunk has no use for is ``None`` (a GRU's ``c``, an unhoisted layer's
``zx``, an inference chunk's gradients and caches).  The cache records
``state.cache[direction][layer][step]`` are built once, over views: of
``acts``, of the ``h``/``c`` slots (or ``h0``/``c0``) a step reads and, on an
unhoisted layer, of its input.  :meth:`ChunkState.slot` resolves an address
to its view and :meth:`ChunkState.map_blocks` walks every block.

Every run starts the accumulators (``dh``, ``dc``, ``dmerged``) at zero:
``np.zeros`` at build, :meth:`ChunkState.clear_accumulators` on a rebind.
With that, every block but the logits is zeros or unread on entry to a run
and unread after it (:attr:`ChunkState.SCRATCH`), which is what lets the
process executor give those blocks fresh, zero-filled shared memory and
copy nothing either way.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.cells import CACHE_FIELDS, cell_cache
from repro.models.params import BRNNParams
from repro.models.spec import CELLS, BRNNSpec

DIRECTIONS = ("fwd", "rev")


class ChunkState:
    """Buffers of one mini-batch chunk (functional execution only)."""

    #: ``(T, 2, B, ·)`` blocks, one per layer; ``zx``/``dz`` are the hoisted
    #: input projections and their gradients, ``dh``/``dc`` accumulators,
    #: ``acts`` the cell caches' ``(T, 2, F, B, H)``
    CHAINS = ("h", "c", "zx", "dz", "dh", "dc", "acts")
    #: ``(T, B, M)`` blocks, layers ``0 .. L-2``
    LAYERS = ("merged", "dmerged")
    #: ``(n_last, B, ·)`` blocks of the last layer's merges and the head
    SLOTS = ("last_merged", "logits", "dlogits", "dlast_merged")
    #: blocks that are zeros (the accumulators, the initial state) or unread
    #: on entry to every run, and unread after it: all but the logits
    SCRATCH = frozenset(CHAINS + LAYERS + SLOTS + ("h0", "c0")) - {"logits"}

    def __init__(
        self, spec: BRNNSpec, x: np.ndarray, labels: Optional[np.ndarray], training: bool,
        hoisted: Sequence[bool],
    ):
        self.spec = spec
        self.x = x
        self.labels = labels
        T, B = x.shape[0], x.shape[1]
        self.seq_len = T
        self.batch = B
        L, H, M = spec.num_layers, spec.hidden_size, spec.merged_size
        GH = CELLS[spec.cell].gates * H
        lstm = spec.cell == "lstm"
        n_last = 1 if spec.head == "many_to_one" else T

        def blocks(width: int, where: Sequence[bool], fill=np.empty) -> list:
            return [fill((T, 2, B, width), dtype=spec.dtype) if on else None for on in where]

        every = [True] * L
        grad = every if training else [False] * L
        self.h = blocks(H, every)
        self.c = blocks(H, every if lstm else [False] * L)
        self.zx = blocks(GH, hoisted)
        self.dz = blocks(GH, [on and training for on in hoisted])
        # what the backward tasks add into; a rebound step zeroes them
        self.dh = blocks(H, grad, np.zeros)
        self.dc = blocks(H, grad if lstm else [False] * L, np.zeros)
        F = len(CACHE_FIELDS[spec.cell])
        self.acts = [np.empty((T, 2, F, B, H), spec.dtype) if on else None for on in grad]
        self.merged = [np.empty((T, B, M), dtype=spec.dtype) for _ in range(L - 1)]
        self.dmerged = [np.zeros((T, B, M), dtype=spec.dtype) for _ in range(L - 1)] if training else []
        rows = {"last_merged": M, "logits": spec.num_classes}
        if training:
            rows.update(dlogits=spec.num_classes, dlast_merged=M)
        for name in self.SLOTS:
            width = rows.get(name)
            setattr(self, name, None if width is None else np.empty((n_last, B, width), spec.dtype))
        #: each head slot's loss sum, what the loss tasks write
        self.loss_sums = np.zeros(n_last)

        # Shared read-only initial state of both chains, ``[d]`` one
        # direction's (never mutated by any kernel).
        self.h0 = np.zeros((2, B, H), dtype=spec.dtype)
        self.c0 = np.zeros_like(self.h0) if lstm else None

        self.grads = BRNNParams.zeros_like(spec) if training else None
        self.cache = {d: [[None] * T for _ in range(L)] for d in DIRECTIONS}
        self._link_caches()

    def _link_caches(self) -> None:
        """Build every cache record over the current blocks (see the module
        docstring); a layer without an ``acts`` block keeps ``None``s."""
        T, spec = self.seq_len, self.spec
        for layer, acts in enumerate(self.acts):
            if acts is None:
                continue
            h, c, inputs = self.h[layer], self.c[layer], self.inputs(layer)
            hoisted = self.zx[layer] is not None
            for d, row in enumerate(self.cache[name][layer] for name in DIRECTIONS):
                for step in range(T):
                    x = None if hoisted else inputs[step if d == 0 else T - 1 - step]
                    h_prev = h[step - 1, d] if step else self.h0[d]
                    c_prev = None if c is None else c[step - 1, d] if step else self.c0[d]
                    row[step] = cell_cache(spec, x, h_prev, c_prev, acts[step, d])

    def slot(self, name: str, *where) -> Optional[np.ndarray]:
        """View of one slot of block kind ``name``, addressed ``(layer,
        direction, step)``, ``(layer, pos)`` or ``(slot,)``; ``None`` where
        the chunk has no such block."""
        block = getattr(self, name)
        if len(where) == 1:
            return block[where[0]]
        block = block[where[0]]
        if block is None:
            return None
        if len(where) == 3:
            return block[where[2], DIRECTIONS.index(where[1])]
        return block[where[1]]

    def map_blocks(self, fn: Callable[[str, np.ndarray], np.ndarray]) -> None:
        """Replace every block ``a`` of kind ``name`` with ``fn(name, a)``,
        the initial state ``h0``/``c0`` too, then rebuild the cache records
        over the new blocks."""
        for name in self.CHAINS + self.LAYERS:
            grid = getattr(self, name)
            for i, block in enumerate(grid):
                if block is not None:
                    grid[i] = fn(name, block)
        for name in self.SLOTS + ("h0", "c0"):
            block = getattr(self, name)
            if block is not None:
                setattr(self, name, fn(name, block))
        self._link_caches()

    def clear_accumulators(self) -> None:
        """Zero what a training step adds into: ``dh``/``dc``/``dmerged``
        and the weight gradients.  Every other slot is written by its
        writer before anything reads it."""
        for block in self.dh + self.dc + self.dmerged:
            if block is not None:
                block.fill(0)
        for _, array in self.grads.arrays():
            array.fill(0)

    def inputs(self, layer: int) -> np.ndarray:
        """``(T, B, I)`` input block of ``layer``: ``x`` or the merges below."""
        return self.x if layer == 0 else self.merged[layer - 1]

    def stacked_logits(self) -> np.ndarray:
        """Logits as one array: (B, C) for m2o, (T, B, C) for m2m."""
        return self.logits[0] if self.spec.head == "many_to_one" else self.logits
