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
``z``, an inference chunk's gradients and caches).  A step's backward reads
the blocks themselves: its ``acts`` slot, the ``h``/``c`` slots (or
``h0``/``c0``) its forward read and, on an unhoisted layer, its input.
:meth:`ChunkState.slot` resolves an address to its view and
:meth:`ChunkState.map_blocks` walks every block.  A
hoisted layer's one ``z`` block serves both passes: a step's forward reads
the projection in its slot, its backward writes the gate gradient over it.

Every run starts the accumulators (``dh``, ``dc``, ``dmerged``) at zero:
``np.zeros`` at build, :meth:`ChunkState.clear_accumulators` on a rebind.
With that, every block but the logits is zeros or unread on entry to a run
and unread after it (:attr:`ChunkState.SCRATCH`), which is what lets the
process executor give those blocks fresh, zero-filled shared memory and
copy nothing either way.

Where a region key's bytes lie in these blocks is stated once, by
:data:`STORAGE`: per kind, the blocks, the slot address as a function of
the key and the row width in symbols.  The builder sizes regions from it,
``region_storage`` resolves a key's views and ``symbolic_storage`` its
extents through it; :class:`ChunkState` allocates its blocks on its own,
and the verifier checks each width against them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.symbolic import Affine
from repro.models.cells import CACHE_FIELDS
from repro.models.params import BRNNParams
from repro.models.spec import CELLS, BRNNSpec

DIRECTIONS = ("fwd", "rev")


def symbols(cell: str, env: Optional[dict] = None) -> SimpleNamespace:
    """The terms of a row width: ``cell``'s state arrays ``S`` (LSTM: ``h``
    and ``c``), gates ``G`` and cache fields ``F``, and the feature widths
    ``H``, ``I0``, ``M``, ``C``: the proof's symbols, or their values in a
    build's ``symbol_env()``, under which a width is elements per row."""
    row = CELLS[cell]
    widths = {n: Affine.sym(n) if env is None else env[n] for n in ("H", "I0", "M", "C")}
    return SimpleNamespace(S=row.state_arrays, G=row.gates, F=len(CACHE_FIELDS[cell]), **widths)


def _after_chunk(key: tuple, T: int) -> tuple:
    return key[2:]


def _by_step(key: tuple, T: int) -> tuple:
    """A key that names a sequence position: the reverse chain reaches
    position ``pos`` at step ``T-1-pos``."""
    layer, direction, pos = key[2:]
    return layer, direction, pos if direction == "fwd" else T - 1 - pos


class Storage(NamedTuple):
    """Where the bytes of a key ``(kind, mb, ...)`` lie in chunk ``mb``'s
    blocks: one slot of each of ``blocks`` (one the chunk lacks counts
    none) at ``address(key, T)``, as :meth:`ChunkState.slot` takes it,
    ``width(symbols)`` elements per batch row over them all."""

    blocks: Tuple[str, ...]
    width: Callable[[SimpleNamespace], object]
    address: Callable[[tuple, int], tuple] = _after_chunk


#: region kind -> :class:`Storage`, for every kind a chunk's blocks back.
#: Addresses are ``(layer, direction, step)`` in ``(T, 2, B, ·)`` blocks
#: (flat slot ``2·step + d``), ``(layer, pos)`` in ``(T, B, M)`` blocks and
#: ``(slot,)`` in the head's and ``x``.  A ``cache`` key is what a step's
#: backward reads: its ``acts`` slot and the ``h``/``c`` slots of the step
#: before (``h0``/``c0`` at step 0), the width of its own step's; in the
#: observer also, on an unhoisted layer, its input row.  Those two are the
#: exceptions left, until ``cache`` splits into an ``acts`` kind and keys
#: of what the backward reads.
STORAGE = {
    "x": Storage(("x",), lambda d: d.I0),
    "h": Storage(("h", "c"), lambda d: d.S * d.H),
    "dh": Storage(("dh", "dc"), lambda d: d.S * d.H),
    "z": Storage(("z",), lambda d: d.G * d.H, _by_step),
    "cache": Storage(("acts", "h", "c"), lambda d: (d.F + d.S) * d.H),
    "m": Storage(("merged",), lambda d: d.M),
    "dm": Storage(("dmerged",), lambda d: d.M),
    "mlast": Storage(("last_merged",), lambda d: d.M),
    "dmlast": Storage(("dlast_merged",), lambda d: d.M),
    "logits": Storage(("logits",), lambda d: d.C),
    "dlogits": Storage(("dlogits",), lambda d: d.C),
}


class ChunkState:
    """Buffers of one mini-batch chunk (functional execution only)."""

    #: ``(T, 2, B, ·)`` blocks, one per layer; ``z`` the hoisted input
    #: projections, then their gradients, ``dh``/``dc`` accumulators,
    #: ``acts`` the cell caches' ``(T, 2, F, B, H)``
    CHAINS = ("h", "c", "z", "dh", "dc", "acts")
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
        self.z = blocks(GH, hoisted)
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

    def prev_state(self, layer: int, d: int, step: int) -> tuple:
        """``(h_prev, c_prev)``, what chain step ``step`` of chain ``d`` of
        ``layer`` reads: the slots of step ``step - 1``, or the initial
        state at step 0; ``c_prev`` is ``None`` for a GRU."""
        if step:
            c = self.c[layer]
            return self.h[layer][step - 1, d], None if c is None else c[step - 1, d]
        return self.h0[d], None if self.c0 is None else self.c0[d]

    def map_blocks(self, fn: Callable[[str, np.ndarray], np.ndarray]) -> None:
        """Replace every block ``a`` of kind ``name`` with ``fn(name, a)``,
        the initial state ``h0``/``c0`` too."""
        for name in self.CHAINS + self.LAYERS:
            grid = getattr(self, name)
            for i, block in enumerate(grid):
                if block is not None:
                    grid[i] = fn(name, block)
        for name in self.SLOTS + ("h0", "c0"):
            block = getattr(self, name)
            if block is not None:
                setattr(self, name, fn(name, block))

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
