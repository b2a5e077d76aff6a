"""Barrier-free BRNN task-graph construction (Algorithms 1-3 of the paper).

One call to :func:`build_brnn_graph` registers every task of a single-batch
forward (and, when training, backward + weight update) pass: one task per
RNN cell update per direction, one per merge (Eq. 11), head/loss tasks, and
per-(layer, direction) gradient-update tasks whose dependences implement the
data-parallel gradient synchronisation of §III-B.  Dependences are declared
through :class:`~repro.runtime.task.Region` annotations exactly as the
paper's ``#pragma omp task in(...) out(...)`` lines do; the runtime derives
the DAG of Fig. 2 from them.  Which regions a task of each family names is
stated once, in :mod:`repro.core.access_spec`: a build site gives a task's
name, payload factory, flops, kind, ``meta`` and place in the creation
order, and ``_Builder._add`` emits its ``in``/``out``/``inout`` lists from
the table.

A build is described once: :func:`build_brnn_graph` derives its structure
(chunk batches, hoisted layers, tile, ``proj_block``, flags and params)
into one :class:`GraphBuildResult`.  The builder fills that
record's graph and regions, the access rules read it, and an ``out=``
rebind compares it field by field with the earlier build's.  Where each
value lives is stated once too, by :class:`~repro.core.state.ChunkState`.

Each (layer, direction) cell chain is cut into tiles of consecutive steps,
one task per tile, by one emitter per pass (``_build_forward_layer`` /
``_build_backward_layer``).  The tile is a single step — the paper's task
per cell update — unless ``wavefront_tile`` lengthens it, under either
with or without hoisting; a layer's merges follow
the chain tile.  ``paired`` runs each forward tile of both directions as
one task of stacked cells (``_Builder._fn_cell_fwd_tile``).
:func:`plan_granularity` is where the engines decide, per batch shape, the
tile, the pairing, the hoisted layers and the threads that will run the
graph.

Two modes:

* **functional** (``x`` given) — payload closures execute the real NumPy
  kernels against :class:`~repro.core.state.ChunkState` buffers.  Any
  dependence-respecting schedule computes outputs bit-identical to the
  sequential oracle (:mod:`repro.models.reference`).
* **cost-only** (``x`` omitted, ``seq_len``/``batch`` given) — tasks carry
  no payload, only region/flop annotations, for paper-scale simulated
  timing studies without allocating hundred-megabyte models.

The mode is decided in one place: ``_add`` calls a task's payload factory
only in a functional build.

``barrier_free=False`` inserts the per-layer barriers used by conventional
frameworks — the knob behind the paper's working-set comparison (§IV-B) and
our barrier ablation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.config import ExecutionConfig
from repro.kernels.dense import dense_backward, dense_bwd_flops, dense_forward, dense_fwd_flops
from repro.kernels.losses import softmax_cross_entropy
from repro.kernels.merge import merge_backward, merge_flops, merge_forward
from repro.models.cells import (
    CACHE_FIELDS,
    cell_backward,
    cell_backward_proj,
    cell_bwd_flops,
    cell_bwd_step_proj_flops,
    cell_forward_proj,
    cell_fwd_flops,
    cell_fwd_step_proj_flops,
    cell_input_projection,
    cell_proj_backward,
    cell_proj_bwd_flops,
    cell_proj_flops,
)
from repro.models.params import BRNNParams
from repro.models.spec import CELLS, BRNNSpec
from repro.core.access_spec import expected_access
from repro.core.state import DIRECTIONS, ChunkState
from repro.core.symbolic import Affine, Extent, Interval
from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.task import INTERLEAVED_HOME, Region, RegionSpace

#: Default ``proj_block`` (timesteps per hoisted-projection task).  Small
#: enough that downstream cells start long before the whole sequence is
#: projected, large enough that each block is still one efficient GEMM.
DEFAULT_PROJ_BLOCK = 16

#: the ChunkState blocks behind each block region kind; a key's indices
#: after the chunk are the slot's address (:meth:`ChunkState.slot`)
_BLOCKS = {
    "h": ("h", "c"), "dh": ("dh", "dc"), "zx": ("zx",), "dz": ("dz",),
    "m": ("merged",), "dm": ("dmerged",),
    "mlast": ("last_merged",), "logits": ("logits",), "dlogits": ("dlogits",),
    "dmlast": ("dlast_merged",),
}


#: ``fused_input_projection="auto"`` hoists a layer whose per-direction
#: weight panel ``(I_l + H)·G·H·itemsize`` is at least this large, in a chunk
#: of at most :data:`HOIST_MAX_ROWS` rows.  Both from the recorded sweep
#: (``tools/sweep.py hoist-floor``, docs/PERF.md): a per-step GEMM on a few
#: rows streams its whole panel for little arithmetic, and at 2 MiB hoisting
#: wins 17-77 % of a training step on 32 rows or fewer (forward 6-31 %).  At
#: 512 KiB the per-step panel stays in the L2; hoisting still wins on 32
#: rows or fewer but reads 0.92-1.13 beyond.
HOIST_MIN_PANEL_BYTES = 1 << 20

#: Above this many rows per chunk the per-step GEMMs are compute-bound
#: already, and the block tasks' stacked operands only add traffic: at
#: 64-128 rows the sweep still reads 0.88-0.98 in training above the floor,
#: at 256 and 512 rows 0.98-1.11.
HOIST_MAX_ROWS = 128


def _hoisted_layers(spec: BRNNSpec, mode, rows: int) -> List[bool]:
    """The ``hoisted`` decision of :func:`plan_granularity` for chunks of at
    most ``rows`` rows.  ``"on"`` hoists every layer, ``"off"`` none, and a
    per-layer list is taken as it is.  ``"auto"`` hoists the layers whose
    weight panel reaches :data:`HOIST_MIN_PANEL_BYTES` when the chunk has at
    most :data:`HOIST_MAX_ROWS` rows: judged from the model and the chunk
    alone, it means the same on every executor, in training and inference."""
    n = spec.num_layers
    if mode == "off":
        return [False] * n
    if mode == "on":
        return [True] * n
    if mode == "auto":
        if rows > HOIST_MAX_ROWS:
            return [False] * n
        itemsize = np.dtype(spec.dtype).itemsize
        panels = (spec.cell_param_shapes(layer)[0] for layer in range(n))
        return [wr * wc * itemsize >= HOIST_MIN_PANEL_BYTES for wr, wc in panels]
    if isinstance(mode, list) and len(mode) == n:
        return list(mode)
    raise ValueError(
        "fused_input_projection must be 'on', 'off', 'auto' or one bool per "
        f"layer, got {mode!r}"
    )


#: GEMM flops per cell step under which a second thread costs more than it
#: overlaps.  A GEMM is the only stretch of a payload that runs without the
#: GIL; below the floor the workers spend the run handing the GIL to each
#: other at every NumPy call.  Set from the sweep in docs/PERF.md, where two
#: threads on one task per chain first beat one thread on one task per
#: layer per pass (``tools/sweep.py thread-floor``).
MIN_GEMM_FLOPS_PER_CELL_STEP = 4e6


def spec_gemm_flops_per_cell_step(
    spec: BRNNSpec, rows: int, mbs: int, seq_len: int, training: bool,
    hoisted: Sequence[bool],
) -> float:
    """The GEMM work a second thread could overlap, per cell update, from
    the spec alone: the graph's GEMM-kind flops over its cell steps.  Every
    count is linear in the rows, so the ``mbs`` chunks sum to the batch; a
    chain tile carries its steps' flops, so the value is the same at every
    tile.  Hoisting moves flops between task kinds but keeps their sum,
    except that a hoisted first layer computes no input gradient."""
    slots = 1 if spec.head == "many_to_one" else seq_len
    head = (spec.head_input_size, spec.num_classes)
    layers = range(spec.num_layers)
    gemm = slots * dense_fwd_flops(rows, *head)
    gemm += 2 * seq_len * sum(cell_fwd_flops(spec, rows, layer) for layer in layers)
    if training:
        gemm += slots * dense_bwd_flops(rows, *head)
        gemm += 2 * seq_len * sum(cell_bwd_flops(spec, rows, layer) for layer in layers)
        if hoisted[0]:
            gemm -= 2 * seq_len * cell_proj_flops(spec, rows, 0)
    steps = mbs * 2 * spec.num_layers * seq_len * (2 if training else 1)
    return gemm / steps


class Granularity(NamedTuple):
    """The decisions of :func:`plan_granularity`: the data-parallel chunks,
    the threads the executor starts, per layer whether its input projection
    is hoisted off the cell chain, the timesteps per cell-chain task, and
    whether a layer's two forward chains are paired."""

    mbs: int
    threads: int
    hoisted: List[bool]
    tile: int
    paired: bool


def plan_granularity(
    spec: BRNNSpec, rows: int, seq_len: int, training: bool, n_workers: int,
    executor, config: Optional[ExecutionConfig] = None,
) -> Granularity:
    """How coarse the tasks of one batch shape are, decided before any
    graph exists.  ``rows`` is the batch, ``executor`` the instance or name
    that will run the graph on ``n_workers``, and ``config`` supplies
    ``mbs``, ``barrier_free`` and the two overrides,
    ``fused_input_projection`` and ``wavefront_tile`` (docs/PERF.md):

    * **mbs** — the configured chunk count clamped to the batch: a trailing
      short batch gets fewer data-parallel chunks;
    * **threads** — on a host Python executor, 1 where
      :func:`spec_gemm_flops_per_cell_step` is under
      :data:`MIN_GEMM_FLOPS_PER_CELL_STEP`, else ``n_workers``; the engines
      hand it to the executor.  Other substrates keep ``n_workers``;
    * **hoisted** — the ``fused_input_projection`` rule per layer;
    * **tile** — ``wavefront_tile`` when set; else ``seq_len``, one task per
      chain, when a threaded or serial executor runs the shape on no more
      threads than a layer has chains (``2·mbs``: the directions times the
      chunks), so the chains alone keep every thread busy and a finer task
      is only dispatch; else 1, the paper's task per cell update, whose
      wavefront the threads share.  One thread is this rule's smallest
      case.  The simulator and the process executor keep the paper's graph;
    * **paired** — on one thread only, without barriers: a step's two cells
      then cost one pointwise stretch.  On more threads the directions run
      beside each other instead.
    """
    cfg = config if config is not None else ExecutionConfig()
    mbs = max(1, min(cfg.mbs, rows))
    hoisted = _hoisted_layers(spec, cfg.fused_input_projection, -(-rows // mbs))
    host = executor in (None, "threaded") or isinstance(
        executor, (ThreadedExecutor, SerialExecutor)
    )
    threads = n_workers
    if host:
        flops = spec_gemm_flops_per_cell_step(spec, rows, mbs, seq_len, training, hoisted)
        threads = 1 if flops < MIN_GEMM_FLOPS_PER_CELL_STEP else n_workers
    tile = cfg.wavefront_tile or (seq_len if host and threads <= 2 * mbs else 1)
    paired = host and threads == 1 and cfg.barrier_free
    return Granularity(mbs, threads, hoisted, tile, paired)


@dataclass
class GraphBuildResult:
    """The one record of a build: its structure, its buffers, and the graph
    and regions built from them.

    :func:`build_brnn_graph` derives the structure once, into a record whose
    ``graph`` and ``regions`` are not made yet; the builder, the access rules
    (:mod:`repro.core.access_spec`), the ``out=`` rebind and the verifier
    all read it.  ``graph.storage`` is a copy of this object with
    ``graph=None`` (same chunks, parameters and regions), so nothing a graph
    refers to refers back to it.
    """

    spec: BRNNSpec
    seq_len: int
    chunk_batches: List[int]
    training: bool
    functional: bool
    graph: Optional[TaskGraph] = None
    regions: Optional[RegionSpace] = None
    chunks: Optional[List[ChunkState]] = None
    params: Optional[BRNNParams] = None
    fused_layers: Optional[List[bool]] = None
    wavefront_tile: Optional[int] = None
    serialize_chunks: bool = False
    barrier_free: bool = True
    paired: bool = False
    update_weights: bool = True
    proj_block: Optional[int] = None
    #: the SGD step: a ``(1,)`` slot the update tasks read when they run,
    #: so a rebind (``build_brnn_graph(out=...)``) can change it
    lr: Optional[np.ndarray] = None

    @property
    def total_batch(self) -> int:
        return sum(self.chunk_batches)

    @property
    def mbs(self) -> int:
        return len(self.chunk_batches)

    def logits(self) -> np.ndarray:
        """Batch logits, chunks re-concatenated along the batch axis."""
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data")
        axis = 0 if self.spec.head == "many_to_one" else 1
        return np.concatenate([c.stacked_logits() for c in self.chunks], axis=axis)

    def mean_loss(self) -> float:
        """Batch mean loss (over B for m2o, over T×B for m2m)."""
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data")
        units = self.total_batch
        if self.spec.head == "many_to_many":
            units *= self.seq_len
        return float(sum(sum(c.loss_sums) for c in self.chunks) / units)

    def combined_grads(self) -> BRNNParams:
        """Sum of per-chunk gradients (the full-batch gradient)."""
        total = BRNNParams.zeros_like(self.spec)
        for chunk in self.chunks:
            total.add_scaled_(chunk.grads, 1.0)
        return total

    # -- region-to-storage mapping (race checking) ------------------------------

    def region_storage(self, key) -> tuple:
        """Current backing arrays of the region named ``key``.

        The race checker (:mod:`repro.runtime.racecheck`) diffs a task's
        *observed* memory accesses against its declared regions; this
        method is the ground truth tying each region key of the builder's
        vocabulary to the ChunkState/params buffers it stands for: a view of
        its block, or the views a cell cache holds.  An inference chunk's
        cache resolves to no arrays, and so does the zero-byte ``serial``
        token.  No payload rebinds storage, so a key resolves to the same
        bytes for the whole of a run.  Functional graphs only.
        """
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data to resolve")
        kind = key[0]
        if kind == "x":
            _, mb, t = key
            return (self.chunks[mb].x[t],)
        if kind == "W":
            _, layer, d = key
            dp = self.params.layers[layer].direction(d)
            return (dp.W, dp.b)
        if kind == "Wout":
            return (self.params.head.W, self.params.head.b)
        if kind == "gW":
            _, mb, layer, d = key
            gp = self.chunks[mb].grads.layers[layer].direction(d)
            return (gp.W, gp.b)
        if kind == "gWout":
            _, mb = key
            gh = self.chunks[mb].grads.head
            return (gh.W, gh.b)
        if kind == "serial":
            return ()
        state = self.chunks[key[1]]
        if kind == "cache":
            _, _, layer, d, step = key
            cache = state.cache[d][layer][step]
            fields = () if cache is None else vars(cache).values()
            return tuple(a for a in fields if isinstance(a, np.ndarray))
        if kind not in _BLOCKS:
            raise KeyError(f"unknown region key vocabulary: {key!r}")
        where = key[2:]
        if kind in ("zx", "dz") and where[1] == "rev":  # a position, stored by chain step
            where = (where[0], "rev", self.seq_len - 1 - where[2])
        views = (state.slot(name, *where) for name in _BLOCKS[kind])
        return tuple(v for v in views if v is not None)

    # -- symbolic region metadata (static verifier) -----------------------------

    def symbol_env(self) -> dict:
        """Concrete valuation of the symbolic size parameters of this build.

        Evaluating any :meth:`symbolic_storage` extent under this
        environment must reproduce the concrete byte counts the builder
        declared — the consistency obligation :mod:`repro.analysis.verify`
        checks to tie the symbolic model to the built graph.
        """
        env = {
            "H": self.spec.hidden_size,
            "I0": self.spec.input_size,
            "M": self.spec.merged_size,
            "C": self.spec.num_classes,
            "isz": int(np.dtype(self.spec.dtype).itemsize),
        }
        for mb, bc in enumerate(self.chunk_batches):
            env[f"b{mb}"] = bc
        return env

    def symbolic_storage(self, key) -> tuple:
        """Symbolic byte extents of the region named ``key``.

        The symbolic mirror of :meth:`region_storage`: instead of the
        concrete backing arrays, it returns :class:`~repro.core.symbolic.
        Extent` tuples — byte intervals in symbolic size parameters
        (``H``, ``I0``, ``M``, ``C``, ``isz``, per-chunk ``b{mb}``) inside
        named address spaces.  Region keys that can alias share a space
        and must be proven disjoint there; the genuinely aliased layouts
        are

        * ``x(mb, t)`` — batch/time slices of the one parent input array,
        * slot blocks (``h``/``dh``/``cache``/``zx``/``dz``/``m``/``dm``
          and the per-slot head rows) — packed per ``(kind, mb, layer)``,
          time-major: chain step ``s`` of direction ``d`` is slot ``2s+d``,
          as in the ChunkState blocks.

        Works for cost-only graphs too (no storage needed): the extents
        describe the *declared* layout, which is what the static verifier
        reasons about.
        """
        kind = key[0]
        spec = self.spec
        H, I0, M = Affine.sym("H"), Affine.sym("I0"), Affine.sym("M")
        C, isz = Affine.sym("C"), Affine.sym("isz")
        cell = CELLS[spec.cell]
        G = cell.gates
        T = self.seq_len

        def b(mb: int) -> Affine:
            return Affine.sym(f"b{mb}")

        def lin(layer: int) -> Affine:
            return I0 if layer == 0 else M

        def own(space, nbytes) -> tuple:
            return (Extent(space, Interval(Affine.const(0), nbytes)),)

        def slot(space, index, size) -> tuple:
            return (Extent(space, Interval(index * size, (index + 1) * size)),)

        if kind == "x":
            _, mb, t = key
            row = I0 * isz  # bytes per sample row
            total = Affine.const(0)
            for j in range(len(self.chunk_batches)):
                total = total + b(j)
            off = Affine.const(0)
            for j in range(mb):
                off = off + b(j)
            lo = (Affine.const(t) * total + off) * row
            return (Extent(("x",), Interval(lo, lo + b(mb) * row)),)
        if kind in ("W", "gW"):  # (..., layer, dir): one whole panel plus its bias
            return own(key, ((lin(key[-2]) + H) * (G * H) + G * H) * isz)
        if kind == "Wout":
            return own(key, (M * C + C) * isz)
        if kind == "gWout":
            _, mb = key
            return own(key, (M * C + C) * isz)
        if kind in ("h", "dh", "cache", "zx", "dz"):
            _, mb, layer, d, idx = key
            mult = {
                "h": cell.state_arrays, "dh": cell.state_arrays, "cache": cell.cache_arrays
            }.get(kind, G)
            size = Affine.const(mult) * b(mb) * H * isz
            if kind in ("zx", "dz") and d == "rev":  # a position, stored by chain step
                idx = T - 1 - idx
            return slot(("slots", kind, mb, layer), 2 * idx + DIRECTIONS.index(d), size)
        if kind in ("m", "dm"):
            _, mb, layer, t = key
            return slot(("slots", kind, mb, layer), t, b(mb) * M * isz)
        if kind in ("mlast", "dmlast"):
            _, mb, s = key
            return slot(("rows", kind, mb), s, b(mb) * M * isz)
        if kind in ("logits", "dlogits"):
            _, mb, s = key
            return slot(("rows", kind, mb), s, b(mb) * C * isz)
        if kind == "serial":
            return ()
        raise KeyError(f"unknown region key vocabulary: {key!r}")

    def map_storage(self, fn, scratch=None) -> None:
        """Rebind every storage array through ``fn(array)``.

        Visits the buffers :meth:`region_storage` resolves — params,
        gradients, each chunk's ``x`` and its blocks — replacing each
        ndarray ``a`` with ``fn(a)``.  A layer's parameter stack is mapped
        once and its direction views are rebuilt from it, and so are a
        chunk's cache records from its blocks.  ``scratch``, when given,
        maps instead of ``fn`` the blocks that are zeros or unread on entry
        to every run and unread after it (:attr:`ChunkState.SCRATCH`).  The
        race checker uses this to swap tracked views in and out, the process
        executor to move storage into shared memory; ``fn`` must return an
        array sharing the original's memory.
        """
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data to map")

        def map_params(p: Optional[BRNNParams]) -> None:
            if p is None:  # an inference chunk's gradients
                return
            for lp in p.layers:  # each stack once; its direction views follow it
                lp.rebind(fn)
            p.head.W = fn(p.head.W)
            p.head.b = fn(p.head.b)

        def map_block(name: str, block: np.ndarray) -> np.ndarray:
            return scratch(block) if scratch and name in ChunkState.SCRATCH else fn(block)

        map_params(self.params)
        for state in self.chunks:
            state.x = fn(state.x)
            state.loss_sums = fn(state.loss_sums)
            state.map_blocks(map_block)
            map_params(state.grads)


#: where the GRU cache's ``R_t ⊙ H_{t-1}`` lies on the field axis of a slot
_GRU_RH = CACHE_FIELDS["gru"].index("rh")


def _by_position(block: np.ndarray, d: int, lo: int, hi: int) -> np.ndarray:
    """Chain ``d``'s rows of positions ``[lo, hi)`` of a ``(T, 2, ...)``
    block held in chain-step order, in sequence order (a view)."""
    T = len(block)
    return block[lo:hi, 0] if d == 0 else block[T - hi : T - lo, 1][::-1]


def _axpy(dst: np.ndarray, alpha: float, src: np.ndarray) -> None:
    """``dst += alpha * src`` with the exact arithmetic of the oracle's SGD."""
    dst += np.asarray(alpha, dtype=dst.dtype) * src


def _direction_pair(layer: int, direction: str):
    """Picks one layer direction's ``(W, b)`` out of a parameter set."""
    return lambda p: p.layers[layer].direction(direction)


def _head_pair(p):
    """Picks the head's ``(W, b)`` out of a parameter set."""
    return p.head


class _Builder:
    """Emits the tasks of one build into its record."""

    def __init__(self, result: GraphBuildResult, lr: float) -> None:
        result.graph, result.regions = TaskGraph(), RegionSpace()
        result.lr = np.full(1, lr, dtype=np.float64)
        self.result = result
        # The record's fields are the build's parameters: bound as the
        # builder's own attributes (the same objects), every emitter reads
        # them in one lookup.
        vars(self).update(vars(result))
        spec, cell = result.spec, CELLS[result.spec.cell]
        #: gate-preactivation width multiplier (``zx`` is ``(B, G·H)``)
        self.gate_mult = cell.gates
        # Every cell chain is cut into tiles of consecutive steps, one task
        # per tile: a single step (the paper's task per cell update) unless
        # ``wavefront_tile`` asks for longer tiles.
        self.tile = tile = result.wavefront_tile or 1
        #: ascending ``(lo, hi, name suffix)`` step ranges of the chain tiles
        self.tiles = []
        for lo in range(0, result.seq_len, tile):
            hi = min(lo + tile, result.seq_len)
            self.tiles.append((lo, hi, f"w{lo}-{hi}" if tile > 1 else f"s{lo}"))
        #: key -> Region of everything in ``regions``, for :meth:`region`:
        #: ``RegionSpace`` has no lookup that does not create, and a task
        #: names ~4 regions, most of them seen before
        self.interned = {}
        self.isz = np.dtype(spec.dtype).itemsize
        H, M, C = spec.hidden_size, spec.merged_size, spec.num_classes
        state = cell.state_arrays * H  # h (+ c for LSTM)
        #: elements per sample of each per-chunk activation kind: the
        #: use-once (streaming) regions, sized by their chunk's batch
        self.row_width = {
            "x": spec.input_size,
            "zx": self.gate_mult * H, "dz": self.gate_mult * H,
            "h": state, "dh": state,
            "cache": cell.cache_arrays * H,
            "m": M, "dm": M, "mlast": M, "dmlast": M,
            "logits": C, "dlogits": C,
        }
        units = result.total_batch * (result.seq_len if spec.head == "many_to_many" else 1)
        self.grad_scale = 1.0 / units

    # -- cost-model annotations and creation order ------------------------------

    def _cell_meta(self, mb: int, layer: int, direction: str, lo: int, hi: int) -> dict:
        """Meta of the cell task covering chain steps ``[lo, hi)``.

        ``reuse`` is the operand sweep count of one cell GEMM: it grows with
        the row count (a blocked GEMM re-reads its weight panels once per row
        block).  The cost model charges the small-GEMM penalty per call:
        multi-step tiles and paired steps say how many, everything else is
        one call."""
        meta = {
            "mb": mb, "layer": layer, "dir": direction, "lo": lo, "hi": hi,
            "reuse": min(6.0, 1.0 + self.chunk_batches[mb] / 32.0),
        }
        calls = (hi - lo) * (2 if direction == "pair" else 1)
        if calls > 1:
            meta["gemm_calls"] = calls
        return meta

    def _chain_schedule(self, descending: bool = False) -> List[tuple]:
        """``(direction, lo, hi, name suffix)`` of one layer's cell tasks,
        in creation order (``descending``: the backward pass).

        Barrier-free mode interleaves the two direction chains by chain
        position — forward, a ready-queue fairness matter; backward, what
        keeps them concurrent: creation order fixes the WAW order on the
        shared ``dm`` accumulators, and chain-major creation would
        serialise the chains (the rev chain's first task writes the dm
        slot the fwd chain writes last; the two contributions commute
        bitwise).  Barriered mode creates chain-major so
        the rev chain's first task can depend on the fwd chain's last.  A
        paired forward pass has one chain, direction ``"pair"``.
        """
        tiles = self.tiles[::-1] if descending else self.tiles
        if self.paired and not descending:
            return [("pair", *tile) for tile in tiles]
        if not self.barrier_free:
            return [(d, *tile) for d in DIRECTIONS for tile in tiles]
        return [(d, *tile) for tile in tiles for d in DIRECTIONS]

    def _proj_reuse(self, mb: int, block_len: int) -> float:
        """Sweep count of a block projection GEMM (``block_len·B`` rows)."""
        return min(6.0, 1.0 + block_len * self.chunk_batches[mb] / 32.0)

    def _proj_blocks(self, direction: str) -> List[tuple]:
        """``(lo, hi)`` position ranges of the hoisted-projection blocks,
        in the order the ``direction`` chain consumes them.

        The forward chain consumes positions ascending, so blocks are cut
        from the sequence start; the reverse chain consumes descending, so
        blocks are cut from the end (each block still covers a contiguous
        position range and the earliest-needed block is registered first).
        """
        T, K = self.seq_len, self.proj_block
        if direction == "fwd":
            return [(lo, min(lo + K, T)) for lo in range(0, T, K)]
        blocks = []
        hi = T
        while hi > 0:
            lo = max(0, hi - K)
            blocks.append((lo, hi))
            hi = lo
        return blocks

    # -- declarations -------------------------------------------------------------

    def region(self, key) -> Region:
        """The one :class:`Region` behind ``key``.

        First sight interns it and fixes what its kind decides: the size,
        use-once (``streaming``) for the per-chunk activation kinds, and
        page-interleaved placement for the shared weights.
        """
        region = self.interned.get(key)
        if region is not None:
            return region
        kind, spec = key[0], self.spec
        width = self.row_width.get(kind)
        if width is not None:  # ("kind", mb, ...): rows of chunk mb
            nbytes = self.chunk_batches[key[1]] * width * self.isz
        elif kind == "serial":
            # Zero-byte token: B-Seq threads it through every task of a
            # chunk as ``inout``, so the chunk runs in registration order
            # while distinct chunks stay independent.
            nbytes = 0
        elif kind in ("Wout", "gWout"):
            nbytes = (spec.head_input_size * spec.num_classes + spec.num_classes) * self.isz
        else:  # ("W", layer, dir), ("gW", mb, layer, dir)
            (wr, wc), (bn,) = spec.cell_param_shapes(key[-2])
            nbytes = (wr * wc + bn) * self.isz
        region = self.regions.get(key, nbytes, streaming=width is not None)
        if kind in ("W", "Wout"):
            region.home = INTERLEAVED_HOME  # shared weights: page-interleaved
        self.interned[key] = region
        return region

    def _add(self, name, factory, *args, flops=0.0, kind="task", meta=None):
        """Emit one task, declared by its family's access rule.

        Stamps ``meta["site"]`` with the name of the builder method that
        emitted the task — declaration *provenance*, so a dependence
        finding's task leads back to the build site, not just the task
        name — and ``meta["family"]``
        (``kind@site``).  The ``in``/``out``/``inout`` regions are what
        :func:`repro.core.access_spec.expected_access` lists for that
        family and ``meta``; a family without a rule is a ``KeyError``.
        The payload is ``factory(*args)`` in a functional build; a
        cost-only task has none.
        """
        meta = dict(meta or {})
        meta.setdefault("site", sys._getframe(1).f_code.co_name)
        meta.setdefault("family", f"{kind}@{meta['site']}")
        decl = expected_access(meta["family"], meta, self.result)
        return self.graph.add_task(
            name,
            factory(*args) if self.functional else None,
            ins=map(self.region, decl.ins),
            outs=map(self.region, decl.outs),
            inouts=map(self.region, decl.inouts),
            flops=flops,
            kind=kind,
            meta=meta,
        )

    # -- payload factories (functional builds) ----------------------------------

    def _fn_proj(self, mb, layer, direction, lo, hi):
        """Hoisted input projection of positions ``[lo, hi)``: the block's
        inputs as one GEMM operand in sequence order, its ``zx`` rows
        written by chain step."""
        state, spec, params = self.chunks[mb], self.spec, self.params
        d = DIRECTIONS.index(direction)

        def fn():
            W = params.layers[layer].direction(direction).W
            zx = cell_input_projection(spec, state.inputs(layer)[lo:hi], W)
            _by_position(state.zx[layer], d, lo, hi)[...] = zx

        return fn

    def _fn_cell_fwd_tile(self, mb, layer, direction, lo, hi):
        """Forward chain tile: steps ``[lo, hi)`` of one chain, or of both
        (``"pair"``), each step's cells as one stacked cell over the
        chains' slice of the layer blocks.  A step reads ``h[step-1]`` and
        writes ``h[step]`` and its cache slot ``acts[step]`` through
        ``out=``, so the arithmetic does not depend on where a chain is cut
        or whether it is paired.  The inputs are the ``zx`` block as it lies
        (chain order), or the tile's inputs stacked in chain order once and
        multiplied in one ``np.matmul``.  On the layer's ``(2, I+H, G·H)``
        weight stack, read in place, the cell's one forward body makes each
        product one ``np.matmul`` over the chains (Appleyard et al.,
        arXiv:1604.01946) and a paired step's pointwise stretch one pass
        (Hwang & Sung, arXiv:1503.02852).  NumPy runs a stack slice by slice
        with the 2-D product's BLAS call, so a paired step is bitwise two
        single steps."""
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len
        fused = self.fused_layers[layer]
        need_cache = self.training
        chains = (0, 1) if direction == "pair" else (DIRECTIONS.index(direction),)
        ds = slice(chains[0], chains[-1] + 1)

        def tile_chains(block: Optional[np.ndarray]) -> Optional[np.ndarray]:
            """The tile's chains of a ``(T, 2, ...)`` block (a view)."""
            return None if block is None else block[:, ds]

        def fn():
            lp = params.layers[layer]
            W, b = lp.W[ds], lp.b[ds, None]
            h, c, acts = map(tile_chains, (state.h[layer], state.c[layer], state.acts[layer]))
            if fused:
                zx, first = tile_chains(state.zx[layer]), 0
            else:  # each (B, I) slice's product is the one a single step makes
                src = state.inputs(layer)
                by_chain = (src[lo:hi], src[T - hi : T - lo][::-1])
                xs = np.stack([by_chain[d] for d in chains], axis=1)
                zx, first = xs @ W[..., : xs.shape[-1], :], lo
            h_prev = h[lo - 1] if lo else state.h0[ds]
            c_prev = None
            if c is not None:
                c_prev = c[lo - 1] if lo else state.c0[ds]
            for step in range(lo, hi):
                out = (h[step], None if c is None else c[step])
                h_prev, c_prev, _ = cell_forward_proj(
                    spec, zx[step - first], h_prev, c_prev, W, b, need_cache, out,
                    acts[step] if need_cache else None,
                )

        return fn

    def _fn_merge(self, mb, layer, lo, hi):
        """Merges of positions ``[lo, hi)``: one call over the block's views
        of both chains, written into the merged block in place."""
        state, spec = self.chunks[mb], self.spec

        def fn():
            h = state.h[layer]
            merge_forward(
                _by_position(h, 0, lo, hi), _by_position(h, 1, lo, hi), spec.merge_mode,
                out=state.merged[layer][lo:hi],
            )

        return fn

    def _fn_last_merge(self, mb, slot, t_fwd, u_rev):
        state, spec, last = self.chunks[mb], self.spec, self.spec.num_layers - 1

        def fn():
            h = state.h[last]
            merge_forward(h[t_fwd, 0], h[u_rev, 1], spec.merge_mode, out=state.last_merged[slot])

        return fn

    def _fn_head_fwd(self, mb, slot):
        state, params = self.chunks[mb], self.params

        def fn():
            state.logits[slot] = dense_forward(
                state.last_merged[slot], params.head.W, params.head.b
            )

        return fn

    def _fn_loss(self, mb, slot, t_label):
        state, spec, scale = self.chunks[mb], self.spec, self.grad_scale

        def fn():
            labels = state.labels if spec.head == "many_to_one" else state.labels[t_label]
            loss_sum, dl = softmax_cross_entropy(state.logits[slot], labels, grad_scale=scale)
            state.loss_sums[slot] = loss_sum
            state.dlogits[slot] = dl

        return fn

    def _fn_head_bwd(self, mb, slot):
        state, params = self.chunks[mb], self.params

        def fn():
            state.dlast_merged[slot] = dense_backward(
                state.dlogits[slot],
                state.last_merged[slot],
                params.head.W,
                state.grads.head.W,
                state.grads.head.b,
            )

        return fn

    def _fn_last_merge_bwd(self, mb, slot, t_fwd, u_rev):
        state, spec, last = self.chunks[mb], self.spec, self.spec.num_layers - 1

        def fn():
            h, dh = state.h[last], state.dh[last]
            da, db = merge_backward(
                state.dlast_merged[slot], h[t_fwd, 0], h[u_rev, 1], spec.merge_mode
            )
            dh[t_fwd, 0] += da
            dh[u_rev, 1] += db

        return fn

    def _fn_cell_bwd_tile(self, mb, layer, direction, lo, hi):
        """Backward chain tile: steps ``hi-1 .. lo`` of one chain.

        Each step reads its ``dh``/``dc`` slot and *adds* the local carry
        from the step above; the carry leaving the tile is ``+=``-ed into
        slot ``lo-1`` for the next tile.  Merge contributions land in the
        slot first either way, so sums associate identically wherever the
        chain is cut and results stay bitwise."""
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len
        fused = self.fused_layers[layer]
        d = DIRECTIONS.index(direction)

        def fn():
            dp = params.layers[layer].direction(direction)
            gp = state.grads.layers[layer].direction(direction)
            dh_b, dc_b = state.dh[layer], state.dc[layer]
            cache_g = state.cache[direction][layer]
            dh_c = dc_c = dc = None
            for step in range(hi - 1, lo - 1, -1):
                dh = dh_b[step, d]
                if dh_c is not None:
                    dh = dh + dh_c
                if dc_b is not None:
                    dc = dc_b[step, d]
                    if dc_c is not None:
                        dc = dc + dc_c
                cache = cache_g[step]
                if fused:
                    state.dz[layer][step, d], dh_c, dc_c = cell_backward_proj(
                        spec, dh, dc, cache, dp.W
                    )
                else:
                    dx, dh_c, dc_c = cell_backward(spec, dh, dc, cache, dp.W, gp.W, gp.b)
                    if layer > 0:
                        state.dmerged[layer - 1][step if d == 0 else T - 1 - step] += dx
            if lo > 0:
                dh_b[lo - 1, d] += dh_c
                if dc_c is not None:
                    dc_b[lo - 1, d] += dc_c

        return fn

    def _fn_proj_bwd(self, mb, layer, direction, lo, hi):
        """Hoisted backward of positions ``[lo, hi)`` of one chain: the whole
        weight-gradient panel, the bias gradient and (above layer 0) ``dx``,
        from the block's ``dz``, inputs and previous states in sequence
        order."""
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len
        d = DIRECTIONS.index(direction)
        steps = range(lo, hi) if d == 0 else range(T - 1 - lo, T - 1 - hi, -1)

        def fn():
            dp = params.layers[layer].direction(direction)
            gp = state.grads.layers[layer].direction(direction)
            h, cache_g = state.h[layer], state.cache[direction][layer]
            dz = _by_position(state.dz[layer], d, lo, hi)
            rh = None
            if spec.cell == "gru":
                h_prev = np.stack([cache_g[s].h_prev for s in steps])
                rh = _by_position(state.acts[layer], d, lo, hi)[:, _GRU_RH]
            else:
                # the initial state is no region of its own: the cache of
                # chain step 0 is the declared slot that holds it
                h_prev = np.stack([h[s - 1, d] if s > 0 else cache_g[0].h_prev for s in steps])
            dx = cell_proj_backward(
                spec, state.inputs(layer)[lo:hi], h_prev, dz, dp.W, gp.W, gp.b, layer > 0, rh
            )
            if layer > 0:
                state.dmerged[layer - 1][lo:hi] += dx

        return fn

    def _fn_merge_bwd(self, mb, layer, lo, hi):
        """Merge backward of positions ``[lo, hi)``: one call over the
        block, added into both chains' ``dh`` slots in place.  Only ``mul``
        reads the merged states."""
        state, spec = self.chunks[mb], self.spec

        def fn():
            dh = state.dh[layer]
            fwd, rev = _by_position(dh, 0, lo, hi), _by_position(dh, 1, lo, hi)
            a, b = fwd, rev  # their width is all sum, avg and concat read
            if spec.merge_mode == "mul":
                h = state.h[layer]
                a, b = _by_position(h, 0, lo, hi), _by_position(h, 1, lo, hi)
            da, db = merge_backward(state.dmerged[layer][lo:hi], a, b, spec.merge_mode)
            fwd += da
            rev += db

        return fn

    def _fn_update(self, pair):
        """SGD over every chunk's gradients of the ``(W, b)`` pair that
        ``pair`` picks from a parameter set (a layer direction's or the
        head's): ``W ← W − lr·Σ g_chunk``."""
        chunks, params, lr = self.chunks, self.params, self.lr

        def fn():
            p, grads = pair(params), [pair(chunk.grads) for chunk in chunks]
            for name in ("W", "b"):
                for g in grads:
                    _axpy(getattr(p, name), -lr[0], getattr(g, name))

        return fn

    # -- graph assembly -----------------------------------------------------------

    def build(self) -> GraphBuildResult:
        n_chunks = len(self.chunk_batches)
        if self.barrier_free:
            for mb in range(n_chunks):
                self._build_forward(mb)
            if self.training:
                for mb in range(n_chunks):
                    self._build_backward(mb)
                if self.update_weights:
                    self._build_updates()
        else:
            # Per-layer-synchronised variant (§IV-B memory study / barrier
            # ablation): layer-major construction with a global barrier per
            # layer, and the two direction passes of a layer serialised —
            # the execution discipline of the conventional frameworks.
            # Dependences only ever get *added*, so results are unchanged.
            for layer in range(self.spec.num_layers):
                for mb in range(n_chunks):
                    self._build_forward_layer(mb, layer)
                self.graph.barrier(f"fwd_layer_barrier.L{layer}")
            if self.training:
                for mb in range(n_chunks):
                    self._build_backward_head(mb)
                self.graph.barrier("bwd_head_barrier")
                for layer in range(self.spec.num_layers - 1, -1, -1):
                    for mb in range(n_chunks):
                        self._build_backward_layer(mb, layer)
                    self.graph.barrier(f"bwd_layer_barrier.L{layer}")
                if self.update_weights:
                    self._build_updates()
        # Executors that need storage resolution (the multiprocess
        # substrate's shared-memory rebinding) reach it
        # through the graph they are handed — engines stay storage-blind.
        # The graph gets the result's handles without the graph itself: a
        # reference back would make the two a cycle, and a finished step's
        # buffers would then wait for the cyclic collector instead of being
        # freed when the engine drops its result.
        self.graph.storage = replace(self.result, graph=None)
        return self.result

    def _build_forward(self, mb: int) -> None:
        for layer in range(self.spec.num_layers):
            self._build_forward_layer(mb, layer)

    def _build_proj_tasks(self, mb: int, layer: int) -> None:
        """Hoisted input-projection tasks of a fused layer, both directions.

        One task per (direction, K-timestep block) computes the block's
        ``X @ W[:I]`` in a single GEMM and publishes per-timestep ``zx``
        regions, so downstream cell tasks start as soon as *their* block
        lands — no barrier, just Region dataflow.  Blocks of the two
        directions are registered interleaved for ready-queue fairness.
        """
        pflops = cell_proj_flops(self.spec, self.chunk_batches[mb], layer)
        # interleave: fwd block 0, rev block 0, fwd block 1, ...
        n_blocks = len(self._proj_blocks("fwd"))
        for i in range(n_blocks):
            for direction in ("fwd", "rev"):
                lo, hi = self._proj_blocks(direction)[i]
                self._add(
                    f"proj[{mb}]L{layer}{direction}b{lo}-{hi}",
                    self._fn_proj, mb, layer, direction, lo, hi,
                    flops=pflops * (hi - lo),
                    kind="proj",
                    meta={
                        "mb": mb,
                        "layer": layer,
                        "dir": direction,
                        "lo": lo,
                        "hi": hi,
                        "reuse": self._proj_reuse(mb, hi - lo),
                    },
                )

    def _merge_tiles(self, descending: bool = False):
        """``(name suffix, span meta, lo, hi)`` of a layer's merge tasks, one
        per chain tile; at tile 1 the paper's per-timestep name and meta."""
        for lo, hi, suffix in self.tiles[::-1] if descending else self.tiles:
            if self.tile == 1:
                yield f"t{lo}", {"t": lo}, lo, hi
            else:
                yield suffix, {"lo": lo, "hi": hi}, lo, hi

    def _build_forward_layer_outputs(self, mb: int, layer: int) -> None:
        """Merge tasks (interior layers) or the head (last)."""
        spec = self.spec
        if layer < spec.num_layers - 1:
            mflops = merge_flops(spec.merge_mode, self.chunk_batches[mb], spec.hidden_size)
            for suffix, span, lo, hi in self._merge_tiles():
                self._add(
                    f"merge[{mb}]L{layer}{suffix}",
                    self._fn_merge, mb, layer, lo, hi,
                    flops=mflops * (hi - lo),
                    kind="merge",
                    meta={"mb": mb, "layer": layer, **span},
                )
        else:
            self._build_head(mb)

    def _build_forward_layer(self, mb: int, layer: int) -> None:
        """One layer's forward pass: its two cell chains, then its merges
        (interior layers) or the head (last layer).

        One task per chain tile (``self.tiles``; a single step by default,
        ``wavefront_tile`` steps when set, docs/PERF.md; ``paired``, one per
        tile of both chains).  Its rule declares every input (or ``zx``)
        position of the tile, the carried ``h`` from below it, and every
        ``h``/cache slot it
        publishes, so the dependence proof and the race checker audit a
        tile of any length the same way.  Layer ``l+1``'s tile depends only
        on layer ``l``'s merges of its own positions: the layer×time
        diagonal of the wavefront, with ``⌈T/K⌉`` tasks per chain.
        """
        spec, bc = self.spec, self.chunk_batches[mb]
        if self.fused_layers[layer]:
            self._build_proj_tasks(mb, layer)
            step_flops = cell_fwd_step_proj_flops(spec, bc)
        else:
            step_flops = cell_fwd_flops(spec, bc, layer)
        for direction, lo, hi, suffix in self._chain_schedule():
            self._add(
                f"{direction}[{mb}]L{layer}{suffix}",
                self._fn_cell_fwd_tile, mb, layer, direction, lo, hi,
                flops=step_flops * (hi - lo) * (2 if direction == "pair" else 1),
                kind="cell",
                meta=self._cell_meta(mb, layer, direction, lo, hi),
            )
        self._build_forward_layer_outputs(mb, layer)

    def _build_backward_layer(self, mb: int, layer: int) -> None:
        """One layer's backward pass: its two cell chains, then the
        per-block projection backward and the merge-backward fan-out.

        Mirrors :meth:`_build_forward_layer`: tiles run in descending step
        order, read every ``dh``/cache slot they consume (merge
        contributions land first), accumulate the carry leaving the tile
        into slot ``lo-1``, and emit either per-position ``dz`` (fused
        layers: the gradients are the block tasks') or the weight gradient
        and ``dm`` contributions.
        """
        spec, bc = self.spec, self.chunk_batches[mb]
        fused = self.fused_layers[layer]
        if fused:
            step_flops = cell_bwd_step_proj_flops(spec, bc)
        else:
            step_flops = cell_bwd_flops(spec, bc, layer)
        for direction, lo, hi, suffix in self._chain_schedule(descending=True):
            self._add(
                f"{direction}Bwd[{mb}]L{layer}{suffix}",
                self._fn_cell_bwd_tile, mb, layer, direction, lo, hi,
                flops=step_flops * (hi - lo),
                kind="cell_bwd",
                meta=self._cell_meta(mb, layer, direction, lo, hi),
            )
        self._build_backward_layer_outputs(mb, layer, fused)

    def _head_slots(self):
        """(slot, t_fwd, u_rev, t_label) tuples for the last-layer merges."""
        T = self.seq_len
        if self.spec.head == "many_to_one":
            return [(0, T - 1, T - 1, None)]
        return [(t, t, T - 1 - t, t) for t in range(T)]

    def _build_head(self, mb: int) -> None:
        spec, bc = self.spec, self.chunk_batches[mb]
        last = spec.num_layers - 1
        mflops = merge_flops(spec.merge_mode, bc, spec.hidden_size)
        hflops = dense_fwd_flops(bc, spec.head_input_size, spec.num_classes)

        for slot, t_fwd, u_rev, t_label in self._head_slots():
            self._add(
                f"mergeLast[{mb}]s{slot}",
                self._fn_last_merge, mb, slot, t_fwd, u_rev,
                flops=mflops,
                kind="merge",
                meta={"mb": mb, "layer": last, "slot": slot},
            )
            self._add(
                f"head[{mb}]s{slot}",
                self._fn_head_fwd, mb, slot,
                flops=hflops,
                kind="head",
                meta={"mb": mb, "slot": slot},
            )
            if self.training:
                self._add(
                    f"loss[{mb}]s{slot}",
                    self._fn_loss, mb, slot, t_label,
                    flops=6.0 * bc * spec.num_classes,
                    kind="loss",
                    meta={"mb": mb, "slot": slot},
                )

    def _build_backward(self, mb: int) -> None:
        self._build_backward_head(mb)
        for layer in range(self.spec.num_layers - 1, -1, -1):
            self._build_backward_layer(mb, layer)

    def _build_backward_head(self, mb: int) -> None:
        spec, bc = self.spec, self.chunk_batches[mb]
        hbflops = dense_bwd_flops(bc, spec.head_input_size, spec.num_classes)
        mbflops = 2.0 * merge_flops(spec.merge_mode, bc, spec.hidden_size)

        # Head backward, t descending (matches the oracle's reduction order).
        for slot, t_fwd, u_rev, _ in reversed(self._head_slots()):
            self._add(
                f"headBwd[{mb}]s{slot}",
                self._fn_head_bwd, mb, slot,
                flops=hbflops,
                kind="head_bwd",
                meta={"mb": mb, "slot": slot},
            )
            self._add(
                f"mergeLastBwd[{mb}]s{slot}",
                self._fn_last_merge_bwd, mb, slot, t_fwd, u_rev,
                flops=mbflops,
                kind="merge_bwd",
                meta={"mb": mb, "slot": slot},
            )

    def _build_proj_bwd_tasks(self, mb: int, layer: int) -> None:
        """Hoisted backward tasks of a fused layer: per (direction, block),
        the whole weight-gradient panel ``dW += [X | H_prev]^T·dZ`` and ``db``
        once per block (and, above layer 0, ``dX`` back into the
        merged-gradient accumulators).

        A hoisted layer's cell tasks publish ``dz`` and touch no gradient, so
        these GEMMs run beside the recurrent backward chain, not on it; the
        blocks of one chain take turns on its ``gW`` panel in creation order.
        Blocks are cut the way the backward chain *produces* ``dz``:
        descending positions for the fwd direction, ascending for rev —
        i.e. the forward blocking of the opposite direction.
        """
        pbflops = cell_proj_bwd_flops(self.spec, self.chunk_batches[mb], layer, layer > 0)
        blocks = {"fwd": self._proj_blocks("rev"), "rev": self._proj_blocks("fwd")}
        n_blocks = len(blocks["fwd"])
        for i in range(n_blocks):
            for direction in ("fwd", "rev"):
                lo, hi = blocks[direction][i]
                self._add(
                    f"projBwd[{mb}]L{layer}{direction}b{lo}-{hi}",
                    self._fn_proj_bwd, mb, layer, direction, lo, hi,
                    flops=pbflops * (hi - lo),
                    kind="proj_bwd",
                    meta={
                        "mb": mb,
                        "layer": layer,
                        "dir": direction,
                        "lo": lo,
                        "hi": hi,
                        "reuse": self._proj_reuse(mb, hi - lo),
                    },
                )

    def _build_backward_layer_outputs(self, mb: int, layer: int, fused: bool) -> None:
        """Per-fused-block proj backward and the merge-backward tiles."""
        spec = self.spec
        mbflops = 2.0 * merge_flops(spec.merge_mode, self.chunk_batches[mb], spec.hidden_size)
        if fused:
            self._build_proj_bwd_tasks(mb, layer)
        if layer > 0:
            below = layer - 1
            for suffix, span, lo, hi in self._merge_tiles(descending=True):
                self._add(
                    f"mergeBwd[{mb}]L{below}{suffix}",
                    self._fn_merge_bwd, mb, below, lo, hi,
                    flops=mbflops * (hi - lo),
                    kind="merge_bwd",
                    meta={"mb": mb, "layer": below, **span},
                )

    def _build_updates(self) -> None:
        spec = self.spec
        n_chunks = len(self.chunk_batches)
        for layer in range(spec.num_layers):
            (wr, wc), (bn,) = spec.cell_param_shapes(layer)
            uflops = 2.0 * n_chunks * (wr * wc + bn)
            for direction in ("fwd", "rev"):
                self._add(
                    f"update.L{layer}.{direction}",
                    self._fn_update, _direction_pair(layer, direction),
                    flops=uflops,
                    kind="weight_update",
                    meta={"layer": layer, "dir": direction},
                )
        self._add(
            "update.head",
            self._fn_update, _head_pair,
            flops=2.0 * n_chunks * (spec.head_input_size * spec.num_classes + spec.num_classes),
            kind="weight_update",
            meta={},
        )


def split_batch(array: np.ndarray, mbs: int, axis: int) -> List[np.ndarray]:
    """Split a batch into ``mbs`` nearly equal chunks along ``axis``."""
    if mbs < 1:
        raise ValueError("mbs must be >= 1")
    if array.shape[axis] < mbs:
        raise ValueError(
            f"cannot split batch of {array.shape[axis]} into {mbs} mini-batches"
        )
    return np.array_split(array, mbs, axis=axis)


def build_brnn_graph(
    spec: BRNNSpec,
    *,
    seq_len: Optional[int] = None,
    batch: Optional[int] = None,
    mbs: int = 1,
    training: bool = True,
    x: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    params: Optional[BRNNParams] = None,
    lr: float = 0.01,
    barrier_free: bool = True,
    update_weights: bool = True,
    serialize_chunks: bool = False,
    fused_input_projection="off",
    proj_block: Optional[int] = None,
    wavefront_tile: Optional[int] = None,
    paired: bool = False,
    out: Optional[GraphBuildResult] = None,
) -> GraphBuildResult:
    """Build the B-Par task graph for one batch.

    Functional mode: pass ``x (T, B, input_size)`` (plus ``labels`` and
    ``params`` when ``training``).  Cost-only mode: pass ``seq_len`` and
    ``batch`` instead.  ``mbs`` splits the batch into that many
    data-parallel chunks (the paper's ``mbs:N``).  ``serialize_chunks``
    turns the graph into the B-Seq baseline: each chunk's tasks execute
    sequentially, so only data parallelism remains.

    ``fused_input_projection`` (``"on"``/``"off"``/``"auto"`` or one bool
    per layer, see :func:`plan_granularity`) leaves only the recurrent GEMM
    on a hoisted layer's cell chain: its ``X_t @ W_x`` GEMMs move into
    per-block ``proj`` tasks of ``proj_block`` timesteps each (default
    :data:`DEFAULT_PROJ_BLOCK`, clamped to the sequence length) and, in
    training, the weight-gradient panel, ``db`` and ``dX`` into per-block
    ``proj_bwd`` tasks.  Forward results stay bit-identical to the
    sequential oracle; hoisted gradients are bitwise at ``proj_block=1``,
    to rounding over longer blocks.  The
    default here is ``"off"``, the paper's task-per-cell graph (every
    simulated table and figure builds it); the engines default to ``"auto"``.

    ``wavefront_tile`` is the one thing that lengthens a chain task:
    ``None``/``1`` is the paper's task per cell update, ``K > 1`` cuts every
    direction chain into ``⌈T/K⌉`` tasks of ``K`` steps (clamped to the
    sequence length), with or without hoisting; the engines pass the tile
    :func:`plan_granularity` chose for the shape.  Every tile's forward and
    backward are bitwise identical to the default's.  A layer's merges are
    cut at the chain tile.  ``paired`` (barrier-free graphs) runs each
    forward tile of the two directions as one task, bitwise the two it
    replaces.

    ``out`` (NumPy's idiom) is an earlier functional build of the same
    structure.  The step's ``x``, ``labels`` and ``lr`` are copied into its
    slots, what a training step adds into is zeroed, and ``out`` itself is
    returned: no new task, region or array, and a run of it is bitwise a
    run of a fresh build.  The call's structure is derived as for a fresh
    build and compared with ``out``'s record field by field (shape,
    ``mbs``, ``training``, hoisting, tile, pairing, barriers,
    ``update_weights``, the ``params`` object, ...; then the dtype): the
    first that differs is a ``ValueError`` naming it.  The copies land in
    the arrays ``out`` was first built over, so the engines build over
    copies of a caller's.
    """
    if proj_block is not None and proj_block < 1:
        raise ValueError("proj_block must be >= 1")
    if wavefront_tile is not None and wavefront_tile < 1:
        raise ValueError("wavefront_tile must be >= 1")
    if paired and not barrier_free:
        raise ValueError("paired directions need a barrier-free graph")
    functional = x is not None
    if functional:
        seq_len, batch = int(x.shape[0]), int(x.shape[1])
        if params is None:
            raise ValueError("functional graphs need params")
        if training and labels is None:
            raise ValueError("training graphs need labels")
    elif seq_len is None or batch is None:
        raise ValueError("cost-only graphs need seq_len and batch")
    chunk_batches = [len(part) for part in split_batch(np.arange(batch), mbs, axis=0)]
    tile = min(seq_len, wavefront_tile or 1)
    record = GraphBuildResult(
        spec=spec, seq_len=seq_len, chunk_batches=chunk_batches, training=training,
        functional=functional, params=params,
        fused_layers=_hoisted_layers(spec, fused_input_projection, max(chunk_batches)),
        wavefront_tile=tile if tile > 1 else None,
        serialize_chunks=serialize_chunks, barrier_free=barrier_free, paired=paired,
        update_weights=update_weights, proj_block=min(seq_len, proj_block or DEFAULT_PROJ_BLOCK),
    )
    if out is not None:
        return _rebind(out, record, x, labels, lr)
    if functional:
        label_chunks = [None] * mbs
        if labels is not None:
            label_chunks = split_batch(labels, mbs, axis=_label_axis(spec))
        record.chunks = [
            ChunkState(spec, xc, lc, training, record.fused_layers)
            for xc, lc in zip(split_batch(x, mbs, axis=1), label_chunks)
        ]
    return _Builder(record, lr).build()


def _label_axis(spec: BRNNSpec) -> int:
    return 0 if spec.head == "many_to_one" else 1


#: the fields of a build ``out=`` must share with the call: all but the
#: graph, the buffers and ``lr``, which a rebind keeps or copies into
_STRUCTURE = tuple(
    f.name for f in fields(GraphBuildResult)
    if f.name not in ("graph", "regions", "functional", "chunks", "lr")
)


def _rebind(out: GraphBuildResult, record: GraphBuildResult, x, labels, lr) -> GraphBuildResult:
    """``build_brnn_graph(out=...)``: check that ``out`` has the structure
    of ``record``, then copy the step's inputs into its slots."""
    if not out.functional or not record.functional:
        raise ValueError("out= takes a functional build and an x to copy into it")
    first = out.chunks[0]
    built = {name: getattr(out, name) for name in _STRUCTURE}
    built.update(dtype=first.x.dtype, labels=first.labels is not None)
    asked = {name: getattr(record, name) for name in _STRUCTURE}
    asked.update(dtype=x.dtype, labels=labels is not None)
    for name, value in asked.items():
        if built[name] is not value and built[name] != value:
            raise ValueError(f"out= was built with another {name}: {built[name]!r}, not {value!r}")
    label_chunks = [None] * out.mbs
    if labels is not None:
        label_chunks = split_batch(labels, out.mbs, axis=_label_axis(out.spec))
    for state, xc, lc in zip(out.chunks, split_batch(x, out.mbs, axis=1), label_chunks):
        np.copyto(state.x, xc)
        if lc is not None:
            np.copyto(state.labels, lc)
        if out.training:
            state.clear_accumulators()
    out.lr[0] = lr
    return out
