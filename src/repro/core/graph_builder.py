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
name, payload, flops, kind, ``meta`` and place in the creation order, and
``_Builder._add`` emits its ``in``/``out``/``inout`` lists from the table.

Each (layer, direction) cell chain is cut into tiles of consecutive steps,
one task per tile, by one emitter per pass (``_build_forward_layer`` /
``_build_backward_layer``).  The tile is a single step — the paper's task
per cell update — unless ``wavefront_tile`` lengthens it, under either
kernel (``fusion``) and with or without hoisting.

Two modes:

* **functional** (``x`` given) — payload closures execute the real NumPy
  kernels against :class:`~repro.core.state.ChunkState` buffers.  Any
  dependence-respecting schedule computes outputs bit-identical to the
  sequential oracle (:mod:`repro.models.reference`).
* **cost-only** (``x`` omitted, ``seq_len``/``batch`` given) — tasks carry
  no payload, only region/flop annotations, for paper-scale simulated
  timing studies without allocating hundred-megabyte models.

``barrier_free=False`` inserts the per-layer barriers used by conventional
frameworks — the knob behind the paper's working-set comparison (§IV-B) and
our barrier ablation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.dense import dense_backward, dense_bwd_flops, dense_forward, dense_fwd_flops
from repro.kernels.losses import softmax_cross_entropy
from repro.kernels.merge import merge_backward, merge_flops, merge_forward
from repro.models.cells import (
    FUSION_MODES,
    cell_backward,
    cell_backward_proj,
    cell_bwd_flops,
    cell_bwd_step_proj_flops,
    cell_forward,
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
from repro.core.access_spec import AccessContext, expected_access
from repro.core.state import ChunkState
from repro.core.symbolic import Affine, Extent, Interval
from repro.runtime.depgraph import TaskGraph
from repro.runtime.task import INTERLEAVED_HOME, Region, RegionSpace

#: Default ``proj_block`` (timesteps per hoisted-projection task).  Small
#: enough that downstream cells start long before the whole sequence is
#: projected, large enough that each block is still one efficient GEMM.
DEFAULT_PROJ_BLOCK = 16

#: Region kinds whose storage is *lazily materialised* by payloads
#: (``state.h_f[l][s] = h`` and friends) rather than preallocated.  Under a
#: fork-based multiprocess run these assignments land in the worker's
#: private copy of the ChunkState, so their values must be shipped between
#: processes via :meth:`GraphBuildResult.export_region` /
#: :meth:`GraphBuildResult.import_region`.  Every other kind is either
#: preallocated storage the executor rebinds into shared memory before
#: forking (``x``/``W``/``gW``/``dh``/``dm``/``vel``/…, mutated strictly
#: in place) or the zero-byte ``serial`` token.
SHIPPED_REGION_KINDS = frozenset(
    {"h", "cache", "zx", "dz", "m", "mlast", "logits", "dlogits", "dmlast"}
)

#: Shipped kinds the *manager* process must import after the run so result
#: readback (:meth:`GraphBuildResult.logits`) works; losses travel through
#: the side-state channel (:meth:`GraphBuildResult.export_side_state`).
PARENT_REGION_KINDS = frozenset({"logits"})

#: ChunkState grids behind each per-(layer, direction, index) slot kind;
#: the attribute is the stem plus ``_f``/``_r`` for the direction
_GRID_ATTRS = {
    "h": ("h", "c"),
    "dh": ("dh", "dc"),
    "cache": ("cache",),
    "zx": ("zx",),
    "dz": ("dz",),
}

#: lazily-assigned per-slot row attributes, by region kind
_ROW_ATTRS = {
    "mlast": "last_merged",
    "logits": "logits",
    "dlogits": "dlogits",
    "dmlast": "dlast_merged",
}


#: ``fused_input_projection="auto"`` hoists a layer whose per-direction
#: weight panel ``(I_l + H)·G·H·itemsize`` is at least this large, in a chunk
#: of at most :data:`HOIST_MAX_ROWS` rows.  Both from the recorded sweep
#: (``tools/sweep_hoist_floor.py``, docs/PERF.md): a per-step GEMM on a few
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


def resolve_fused_layers(spec: BRNNSpec, mode, rows: int) -> List[bool]:
    """Per-layer hoist decision for ``fused_input_projection``.

    ``"on"``/``True`` hoists every layer, ``"off"``/``False``/``None`` none.
    ``"auto"`` hoists the layers where it pays on a real host, judged from
    the model and the chunk alone: those whose weight panel reaches
    :data:`HOIST_MIN_PANEL_BYTES`, when the chunk has at most
    :data:`HOIST_MAX_ROWS` ``rows``.  It means the same on every executor
    and in training and inference.
    """
    n = spec.num_layers
    if mode in (False, None) or mode == "off":
        return [False] * n
    if mode is True or mode == "on":
        return [True] * n
    if mode == "auto":
        if rows > HOIST_MAX_ROWS:
            return [False] * n
        itemsize = np.dtype(spec.dtype).itemsize
        panels = (spec.cell_param_shapes(layer)[0] for layer in range(n))
        return [wr * wc * itemsize >= HOIST_MIN_PANEL_BYTES for wr, wc in panels]
    raise ValueError(
        f"fused_input_projection must be 'on', 'off', 'auto' or bool, got {mode!r}"
    )


@dataclass
class GraphBuildResult:
    """A built graph plus the handles needed to read results back.

    ``graph.storage`` is a copy of this object with ``graph=None`` (same
    chunks, parameters and regions), so nothing a graph refers to refers
    back to it.
    """

    graph: TaskGraph
    regions: RegionSpace
    spec: BRNNSpec
    seq_len: int
    chunk_batches: List[int]
    training: bool
    functional: bool
    chunks: Optional[List[ChunkState]] = None
    params: Optional[BRNNParams] = None
    fused_layers: Optional[List[bool]] = None
    velocity: Optional[BRNNParams] = None
    fusion: str = "gates"
    wavefront_tile: Optional[int] = None
    serialize_chunks: bool = False
    barrier_free: bool = True

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
        return sum(sum(c.loss_sums) for c in self.chunks) / units

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
        vocabulary to the ChunkState/params buffers it stands for.  Slots
        not yet materialised resolve to fewer (or zero) arrays; regions
        with no storage at all (the zero-byte ``serial`` token) resolve to
        ``()``.  Functional graphs only.
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
        if kind == "vel":
            if self.velocity is None:
                return ()
            if key[1] == "head":
                return (self.velocity.head.W, self.velocity.head.b)
            _, layer, d = key
            vp = self.velocity.layers[layer].direction(d)
            return (vp.W, vp.b)
        if kind == "serial":
            return ()
        arrays = []
        for row, i in self._slots(key):
            value = row[i]
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif value is not None:  # a cell cache: its array fields
                arrays += [a for a in vars(value).values() if isinstance(a, np.ndarray)]
        return tuple(arrays)

    def _slots(self, key) -> list:
        """``(row, index)`` list cells of the ChunkState slots behind ``key``.

        The one region-key → ChunkState-slot decision: :meth:`region_storage`
        reads through these cells, :meth:`export_region` copies them out and
        :meth:`import_region` assigns into them.  A slot not yet materialised
        holds ``None``.
        """
        kind = key[0]
        if kind in _GRID_ATTRS:
            _, mb, layer, d, index = key
            state, suffix = self.chunks[mb], "_f" if d == "fwd" else "_r"
            return [(getattr(state, stem + suffix)[layer], index) for stem in _GRID_ATTRS[kind]]
        if kind in ("m", "dm"):
            _, mb, layer, t = key
            state = self.chunks[mb]
            return [((state.merged if kind == "m" else state.dmerged)[layer], t)]
        if kind in _ROW_ATTRS:
            _, mb, slot = key
            rows = getattr(self.chunks[mb], _ROW_ATTRS[kind], None)  # dlast_merged: training only
            return [(rows, slot)] if rows is not None else []
        raise KeyError(f"unknown region key vocabulary: {key!r}")

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
        * slot grids (``h``/``dh``/``cache``/``zx``/``dz``/``m``/``dm``
          and the per-slot head rows) — packed per ``(kind, mb, layer)``
          with the forward chain's slots before the reverse chain's.

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
            return slot(("slots", kind, mb, layer), idx if d == "fwd" else T + idx, size)
        if kind in ("m", "dm"):
            _, mb, layer, t = key
            return slot(("slots", kind, mb, layer), t, b(mb) * M * isz)
        if kind in ("mlast", "dmlast"):
            _, mb, s = key
            return slot(("rows", kind, mb), s, b(mb) * M * isz)
        if kind in ("logits", "dlogits"):
            _, mb, s = key
            return slot(("rows", kind, mb), s, b(mb) * C * isz)
        if kind == "vel":
            if key[1] == "head":
                return own(key, (M * C + C) * isz)
            _, layer, d = key
            return own(key, ((lin(layer) + H) * (G * H) + G * H) * isz)
        if kind == "serial":
            return ()
        raise KeyError(f"unknown region key vocabulary: {key!r}")

    def map_storage(self, fn) -> None:
        """Rebind every rebindable storage array through ``fn(array)``.

        Visits the same buffers :meth:`region_storage` resolves — params,
        gradients, velocity, and every ChunkState slot (including cache
        dataclass fields) — replacing each ndarray ``a`` with ``fn(a)``.
        The race checker uses this to swap tracked views in and out; ``fn``
        must return an array sharing the original's memory.
        """
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data to map")

        def map_params(p: Optional[BRNNParams]) -> None:
            if p is None:
                return
            for lp in p.layers:
                for dp in (lp.fwd, lp.rev):
                    dp.W = fn(dp.W)
                    dp.b = fn(dp.b)
            p.head.W = fn(p.head.W)
            p.head.b = fn(p.head.b)

        def map_list(row: list) -> None:
            for i, a in enumerate(row):
                if isinstance(a, np.ndarray):
                    row[i] = fn(a)
                elif a is not None and hasattr(a, "__dict__"):  # cell cache
                    for name, v in vars(a).items():
                        if isinstance(v, np.ndarray):
                            setattr(a, name, fn(v))

        map_params(self.params)
        map_params(self.velocity)
        for state in self.chunks:
            state.x = fn(state.x)
            for grid in (
                state.h_f, state.c_f, state.cache_f,
                state.h_r, state.c_r, state.cache_r,
                state.zx_f, state.zx_r, state.dz_f, state.dz_r,
                state.merged,
            ):
                for row in grid:
                    map_list(row)
            map_list(state.last_merged)
            map_list(state.logits)
            map_list(state.dlogits)
            if self.training:
                for grid in (state.dh_f, state.dh_r, state.dc_f, state.dc_r, state.dmerged):
                    for row in grid:
                        map_list(row)
                map_list(state.dlast_merged)
                map_params(state.grads)

    # -- cross-process region transport (multiprocess executor) -----------------

    def shipped_kinds(self) -> frozenset:
        """Region kinds that must travel between processes (see
        :data:`SHIPPED_REGION_KINDS`)."""
        return SHIPPED_REGION_KINDS

    def parent_kinds(self) -> frozenset:
        """Shipped kinds the manager imports for result readback."""
        return PARENT_REGION_KINDS

    def _shipped_slots(self, key) -> list:
        """:meth:`_slots` of a key whose kind travels between processes."""
        if not self.functional:
            raise RuntimeError("cost-only graphs carry no data to ship")
        if key[0] not in SHIPPED_REGION_KINDS:
            raise KeyError(f"region kind {key[0]!r} is not shipped between processes")
        return self._slots(key)

    def export_region(self, key):
        """Picklable payload of one lazily-materialised region slot.

        The multiprocess executor calls this in the *worker* that just ran
        the slot's writer; :meth:`import_region` installs the payload in
        any process that reads it.  Only keys whose kind is in
        :data:`SHIPPED_REGION_KINDS` are meaningful here — preallocated
        storage is shared in place and never exported.  The payload is the
        slot's value, or the ``(h, c)`` pair for the two-slot ``h`` kind.
        """
        values = tuple(row[i] for row, i in self._shipped_slots(key))
        return values if key[0] == "h" else values[0]

    def import_region(self, key, payload) -> None:
        """Install a payload produced by :meth:`export_region` elsewhere."""
        values = payload if key[0] == "h" else (payload,)
        for (row, i), value in zip(self._shipped_slots(key), values):
            row[i] = value

    def export_region_nbytes(self, key, region_nbytes: int) -> int:
        """Upper bound on the raw payload bytes :meth:`export_region` yields.

        Usually the region's own byte count; ``cache`` payloads addition­ally
        retain the cell *input* on the unfused path (``cache.x``), whose
        width is the layer input size — wider than the hidden-width arrays
        the cache region's accounting covers.  The multiprocess executor
        sizes its export arenas from this.
        """
        if key[0] == "cache":
            _, mb, layer, d, step = key
            bc = self.chunk_batches[mb]
            itemsize = np.dtype(self.spec.dtype).itemsize
            return region_nbytes + bc * self.spec.layer_input_size(layer) * itemsize
        return region_nbytes

    def export_side_state(self, task) -> list:
        """Non-region state a task mutated, as picklable items.

        The only such state is ``ChunkState.loss_sums`` — plain floats the
        loss payloads assign, invisible to the region system because they
        are not arrays.  Identified by the task's declared writes: the
        loss task is the unique writer of a chunk's ``dlogits`` slot.
        """
        items = []
        for region in task.writes():
            key = region.key
            if key[0] == "dlogits":
                _, mb, slot = key
                items.append(("loss", mb, slot, self.chunks[mb].loss_sums[slot]))
        return items

    def apply_side_state(self, items) -> None:
        """Install side-state items exported by a worker."""
        for kind, mb, slot, value in items:
            if kind == "loss":
                self.chunks[mb].loss_sums[slot] = value
            else:  # pragma: no cover - forward compatibility guard
                raise KeyError(f"unknown side-state kind {kind!r}")


def _axpy(dst: np.ndarray, alpha: float, src: np.ndarray) -> None:
    """``dst += alpha * src`` with the exact arithmetic of the oracle's SGD."""
    dst += np.asarray(alpha, dtype=dst.dtype) * src


class _Builder:
    def __init__(
        self,
        spec: BRNNSpec,
        seq_len: int,
        chunk_batches: Sequence[int],
        training: bool,
        functional: bool,
        barrier_free: bool,
        update_weights: bool,
        lr: float,
        params: Optional[BRNNParams],
        chunks: Optional[List[ChunkState]],
        serialize_chunks: bool = False,
        momentum: float = 0.0,
        velocity: Optional[BRNNParams] = None,
        fused_layers: Optional[List[bool]] = None,
        proj_block: Optional[int] = None,
        fusion: str = "gates",
        wavefront_tile: Optional[int] = None,
    ) -> None:
        self.momentum = momentum
        self.velocity = velocity
        self.fused_layers = fused_layers or [False] * spec.num_layers
        if proj_block is not None and proj_block < 1:
            raise ValueError("proj_block must be >= 1")
        self.proj_block = min(seq_len, proj_block or DEFAULT_PROJ_BLOCK)
        if fusion not in FUSION_MODES:
            raise ValueError(
                f"fusion must be one of {'/'.join(FUSION_MODES)}, got {fusion!r}"
            )
        if wavefront_tile is not None and wavefront_tile < 1:
            raise ValueError("wavefront_tile must be >= 1")
        self.fusion = fusion
        cell = CELLS[spec.cell]
        #: gate-preactivation width multiplier (``zx`` is ``(B, G·H)``)
        self.gate_mult = cell.gates
        # Every cell chain is cut into tiles of consecutive steps, one task
        # per tile: a single step (the paper's task per cell update) unless
        # ``wavefront_tile`` asks for longer tiles.
        tile = min(seq_len, wavefront_tile or 1)
        #: ascending ``(lo, hi, name suffix)`` step ranges of the chain tiles
        self.tiles = []
        for lo in range(0, seq_len, tile):
            hi = min(lo + tile, seq_len)
            self.tiles.append((lo, hi, f"w{lo}-{hi}" if tile > 1 else f"s{lo}"))
        self.spec = spec
        self.seq_len = seq_len
        self.chunk_batches = list(chunk_batches)
        self.training = training
        self.functional = functional
        self.barrier_free = barrier_free
        self.update_weights = update_weights
        self.lr = lr
        self.params = params
        self.chunks = chunks
        self.graph = TaskGraph()
        self.regions = RegionSpace()
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
        units = self.total_batch * (seq_len if spec.head == "many_to_many" else 1)
        self.grad_scale = 1.0 / units
        self.fusion_meta = [self._fusion_meta(mb) for mb in range(len(self.chunk_batches))]
        self.result = GraphBuildResult(
            graph=self.graph,
            regions=self.regions,
            spec=spec,
            seq_len=seq_len,
            chunk_batches=self.chunk_batches,
            training=training,
            functional=functional,
            chunks=chunks,
            params=params,
            fused_layers=list(self.fused_layers),
            velocity=velocity,
            fusion=fusion,
            wavefront_tile=tile if tile > 1 else None,
            serialize_chunks=serialize_chunks,
            barrier_free=barrier_free,
        )
        #: what the access rules need to know about this build
        self.access = AccessContext.from_result(self.result)

    @property
    def total_batch(self) -> int:
        return sum(self.chunk_batches)

    # -- cost-model annotations and creation order ------------------------------

    def _gemm_reuse(self, mb: int) -> float:
        """Operand sweep count of one cell GEMM: grows with the row count
        (a blocked GEMM re-reads its weight panels once per row block)."""
        return min(6.0, 1.0 + self.chunk_batches[mb] / 32.0)

    def _fusion_meta(self, mb: int) -> dict:
        """Cost-model meta every cell task of chunk ``mb`` carries: the
        sweep count, and under ``"off"`` one more sweep of the gate buffers
        for the separate activation passes, plus the kernel's name."""
        if self.fusion == "off":
            return {"reuse": self._gemm_reuse(mb) + 1.0, "fusion": "off"}
        return {"reuse": self._gemm_reuse(mb)}

    def _cell_meta(self, mb: int, layer: int, direction: str, lo: int, hi: int) -> dict:
        """Meta of the cell task covering chain steps ``[lo, hi)``.  The
        cost model charges the small-GEMM penalty per call: per-gate kernels
        and multi-step tiles say how many, everything else is one call."""
        meta = {"mb": mb, "layer": layer, "dir": direction, "lo": lo, "hi": hi}
        meta.update(self.fusion_meta[mb])
        if self.fusion == "off":
            meta["gemm_calls"] = self.gate_mult * (hi - lo)
        elif hi - lo > 1:
            meta["gemm_calls"] = hi - lo
        return meta

    def _chain_schedule(self, serial_dirs: bool, descending: bool = False) -> List[tuple]:
        """``(direction, lo, hi, name suffix)`` of one layer's cell tasks,
        in creation order (``descending``: the backward pass).

        Barrier-free mode interleaves the two direction chains by chain
        position — forward, a ready-queue fairness matter; backward, what
        keeps them concurrent: creation order fixes the WAW order on the
        shared ``dm`` accumulators, and chain-major creation would
        serialise the chains (the rev chain's first task writes the dm
        slot the fwd chain writes last; the two contributions commute
        bitwise).  ``serial_dirs`` (barriered mode) creates chain-major so
        the rev chain's first task can depend on the fwd chain's last.
        """
        tiles = self.tiles[::-1] if descending else self.tiles
        if serial_dirs:
            return [(d, *tile) for d in ("fwd", "rev") for tile in tiles]
        return [(d, *tile) for tile in tiles for d in ("fwd", "rev")]

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
        elif kind in ("Wout", "gWout") or key == ("vel", "head"):
            nbytes = (spec.head_input_size * spec.num_classes + spec.num_classes) * self.isz
        else:  # ("W" | "vel", layer, dir), ("gW", mb, layer, dir)
            (wr, wc), (bn,) = spec.cell_param_shapes(key[-2])
            nbytes = (wr * wc + bn) * self.isz
        region = self.regions.get(key, nbytes, streaming=width is not None)
        if kind in ("W", "Wout"):
            region.home = INTERLEAVED_HOME  # shared weights: page-interleaved
        self.interned[key] = region
        return region

    def _add(self, name, fn, *, flops=0.0, kind="task", meta=None):
        """Emit one task, declared by its family's access rule.

        Stamps ``meta["site"]`` with the name of the builder method that
        emitted the task — declaration *provenance*, so a dependence
        finding's task leads back to the build site, not just the task
        name — and ``meta["family"]``
        (``kind@site``).  The ``in``/``out``/``inout`` regions are what
        :func:`repro.core.access_spec.expected_access` lists for that
        family and ``meta``; a family without a rule is a ``KeyError``.
        """
        meta = dict(meta or {})
        meta.setdefault("site", sys._getframe(1).f_code.co_name)
        meta.setdefault("family", f"{kind}@{meta['site']}")
        decl = expected_access(meta["family"], meta, self.access)
        return self.graph.add_task(
            name,
            fn,
            ins=map(self.region, decl.ins),
            outs=map(self.region, decl.outs),
            inouts=map(self.region, decl.inouts),
            flops=flops,
            kind=kind,
            meta=meta,
        )

    # -- payload factories (functional mode) ------------------------------------

    def _fn_proj(self, mb, layer, direction, lo, hi):
        if not self.functional:
            return None
        state, spec, params = self.chunks[mb], self.spec, self.params

        def fn():
            dp = params.layers[layer].direction(direction)
            xs = [state.layer_input(layer, pos) for pos in range(lo, hi)]
            zxs = cell_input_projection(spec, xs, dp.W)
            target = state.zx_f if direction == "fwd" else state.zx_r
            for k, pos in enumerate(range(lo, hi)):
                target[layer][pos] = zxs[k]

        return fn

    def _fn_cell_fwd_tile(self, mb, layer, direction, lo, hi):
        """Forward chain tile: steps ``[lo, hi)`` of one chain in one
        payload, carrying ``h``/``c`` locally between steps and publishing
        every per-step slot (merges and the next tile read them).  The
        local carry *is* the array the previous iteration just stored, so
        the arithmetic does not depend on where the chain is cut."""
        if not self.functional:
            return None
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len
        fused = self.fused_layers[layer]
        need_cache = self.training
        fusion = self.fusion

        def fn():
            dp = params.layers[layer].direction(direction)
            if direction == "fwd":
                h_g, c_g, cache_g, zx_g = state.h_f, state.c_f, state.cache_f, state.zx_f
            else:
                h_g, c_g, cache_g, zx_g = state.h_r, state.c_r, state.cache_r, state.zx_r
            h_prev = h_g[layer][lo - 1] if lo > 0 else state.h0
            c_prev = c_g[layer][lo - 1] if lo > 0 else state.c0
            if spec.cell != "lstm":
                c_prev = None
            for step in range(lo, hi):
                pos = step if direction == "fwd" else T - 1 - step
                if fused:
                    h, c, cache = cell_forward_proj(
                        spec, zx_g[layer][pos], h_prev, c_prev, dp.W, dp.b, need_cache
                    )
                else:
                    h, c, cache = cell_forward(
                        spec, state.layer_input(layer, pos), h_prev, c_prev,
                        dp.W, dp.b, fusion, need_cache,
                    )
                h_g[layer][step] = h
                c_g[layer][step] = c
                cache_g[layer][step] = cache
                h_prev, c_prev = h, c

        return fn

    def _fn_merge(self, mb, layer, t):
        if not self.functional:
            return None
        state, spec, T = self.chunks[mb], self.spec, self.seq_len

        def fn():
            state.merged[layer][t] = merge_forward(
                state.h_f[layer][t], state.h_r[layer][T - 1 - t], spec.merge_mode
            )

        return fn

    def _fn_last_merge(self, mb, slot, t_fwd, u_rev):
        if not self.functional:
            return None
        state, spec, last = self.chunks[mb], self.spec, self.spec.num_layers - 1

        def fn():
            state.last_merged[slot] = merge_forward(
                state.h_f[last][t_fwd], state.h_r[last][u_rev], spec.merge_mode
            )

        return fn

    def _fn_head_fwd(self, mb, slot):
        if not self.functional:
            return None
        state, params = self.chunks[mb], self.params

        def fn():
            state.logits[slot] = dense_forward(
                state.last_merged[slot], params.head.W, params.head.b
            )

        return fn

    def _fn_loss(self, mb, slot, t_label):
        if not self.functional:
            return None
        state, spec, scale = self.chunks[mb], self.spec, self.grad_scale

        def fn():
            labels = state.labels if spec.head == "many_to_one" else state.labels[t_label]
            loss_sum, dl = softmax_cross_entropy(state.logits[slot], labels, grad_scale=scale)
            state.loss_sums[slot] = loss_sum
            state.dlogits[slot] = dl

        return fn

    def _fn_head_bwd(self, mb, slot):
        if not self.functional:
            return None
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
        if not self.functional:
            return None
        state, spec, last = self.chunks[mb], self.spec, self.spec.num_layers - 1

        def fn():
            da, db = merge_backward(
                state.dlast_merged[slot],
                state.h_f[last][t_fwd],
                state.h_r[last][u_rev],
                spec.merge_mode,
            )
            state.dh_f[last][t_fwd] += da
            state.dh_r[last][u_rev] += db

        return fn

    def _fn_cell_bwd_tile(self, mb, layer, direction, lo, hi):
        """Backward chain tile: steps ``hi-1 .. lo`` of one chain.

        Each step reads its ``dh``/``dc`` slot and *adds* the local carry
        from the step above; the carry leaving the tile is ``+=``-ed into
        slot ``lo-1`` for the next tile.  Merge contributions land in the
        slot first either way, so sums associate identically wherever the
        chain is cut and results stay bitwise."""
        if not self.functional:
            return None
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len
        fused = self.fused_layers[layer]
        fusion = self.fusion

        def fn():
            dp = params.layers[layer].direction(direction)
            gp = state.grads.layers[layer].direction(direction)
            if direction == "fwd":
                dh_g, dc_g = state.dh_f, state.dc_f
                cache_g, dz_g = state.cache_f, state.dz_f
            else:
                dh_g, dc_g = state.dh_r, state.dc_r
                cache_g, dz_g = state.cache_r, state.dz_r
            dh_c = dc_c = None
            for step in range(hi - 1, lo - 1, -1):
                dh = dh_g[layer][step]
                if dh_c is not None:
                    dh = dh + dh_c
                dc = dc_g[layer][step]
                if dc_c is not None:
                    dc = dc + dc_c
                cache = cache_g[layer][step]
                pos = step if direction == "fwd" else T - 1 - step
                if fused:
                    dz, dh_c, dc_c = cell_backward_proj(spec, dh, dc, cache, dp.W)
                    dz_g[layer][pos] = dz
                else:
                    dx, dh_c, dc_c = cell_backward(
                        spec, dh, dc, cache, dp.W, gp.W, gp.b, fusion
                    )
                    if layer > 0:
                        state.dmerged[layer - 1][pos] += dx
            if lo > 0:
                dh_g[layer][lo - 1] += dh_c
                if dc_c is not None:
                    dc_g[layer][lo - 1] += dc_c

        return fn

    def _fn_proj_bwd(self, mb, layer, direction, lo, hi):
        """Hoisted backward of positions ``[lo, hi)`` of one chain: the whole
        weight-gradient panel, the bias gradient and (above layer 0) ``dx``,
        from the block's stacked ``dz``, inputs and previous states."""
        if not self.functional:
            return None
        state, spec, params, T = self.chunks[mb], self.spec, self.params, self.seq_len

        def fn():
            dp = params.layers[layer].direction(direction)
            gp = state.grads.layers[layer].direction(direction)
            if direction == "fwd":
                h_g, cache_g, dz_g = state.h_f, state.cache_f, state.dz_f
            else:
                h_g, cache_g, dz_g = state.h_r, state.cache_r, state.dz_r
            positions = range(lo, hi)
            steps = [pos if direction == "fwd" else T - 1 - pos for pos in positions]
            xs = [state.layer_input(layer, pos) for pos in positions]
            dzs = [dz_g[layer][pos] for pos in positions]
            if spec.cell == "gru":
                caches = [cache_g[layer][step] for step in steps]
                h_prevs = [cache.h_prev for cache in caches]
                rhs = [cache.rh for cache in caches]
            else:
                # the initial state is no region of its own: the cache of
                # chain step 0 is the declared slot that holds it
                h_prevs = [
                    h_g[layer][step - 1] if step > 0 else cache_g[layer][0].h_prev
                    for step in steps
                ]
                rhs = None
            dxs = cell_proj_backward(
                spec, xs, h_prevs, dzs, dp.W, gp.W, gp.b, layer > 0, rhs
            )
            if layer > 0:
                for pos, dx in zip(positions, dxs):
                    state.dmerged[layer - 1][pos] += dx

        return fn

    def _fn_merge_bwd(self, mb, layer, t):
        if not self.functional:
            return None
        state, spec, T = self.chunks[mb], self.spec, self.seq_len

        def fn():
            da, db = merge_backward(
                state.dmerged[layer][t],
                state.h_f[layer][t],
                state.h_r[layer][T - 1 - t],
                spec.merge_mode,
            )
            state.dh_f[layer][t] += da
            state.dh_r[layer][T - 1 - t] += db

        return fn

    def _fn_weight_update(self, layer, direction):
        if not self.functional:
            return None
        chunks, params, lr = self.chunks, self.params, self.lr
        momentum, velocity = self.momentum, self.velocity

        if velocity is None:
            def fn():
                dp = params.layers[layer].direction(direction)
                for chunk in chunks:
                    gp = chunk.grads.layers[layer].direction(direction)
                    _axpy(dp.W, -lr, gp.W)
                    _axpy(dp.b, -lr, gp.b)
        else:
            # v ← µ·v − lr·Σ g_chunk ;  W ← W + v   (classical momentum)
            def fn():
                dp = params.layers[layer].direction(direction)
                vp = velocity.layers[layer].direction(direction)
                vp.W *= np.asarray(momentum, dtype=vp.W.dtype)
                vp.b *= np.asarray(momentum, dtype=vp.b.dtype)
                for chunk in chunks:
                    gp = chunk.grads.layers[layer].direction(direction)
                    _axpy(vp.W, -lr, gp.W)
                    _axpy(vp.b, -lr, gp.b)
                dp.W += vp.W
                dp.b += vp.b

        return fn

    def _fn_head_update(self):
        if not self.functional:
            return None
        chunks, params, lr = self.chunks, self.params, self.lr
        momentum, velocity = self.momentum, self.velocity

        if velocity is None:
            def fn():
                for chunk in chunks:
                    _axpy(params.head.W, -lr, chunk.grads.head.W)
                    _axpy(params.head.b, -lr, chunk.grads.head.b)
        else:
            def fn():
                velocity.head.W *= np.asarray(momentum, dtype=velocity.head.W.dtype)
                velocity.head.b *= np.asarray(momentum, dtype=velocity.head.b.dtype)
                for chunk in chunks:
                    _axpy(velocity.head.W, -lr, chunk.grads.head.W)
                    _axpy(velocity.head.b, -lr, chunk.grads.head.b)
                params.head.W += velocity.head.W
                params.head.b += velocity.head.b

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
                    self._build_forward_layer(mb, layer, serial_dirs=True)
                self.graph.barrier(f"fwd_layer_barrier.L{layer}")
            if self.training:
                for mb in range(n_chunks):
                    self._build_backward_head(mb)
                self.graph.barrier("bwd_head_barrier")
                for layer in range(self.spec.num_layers - 1, -1, -1):
                    for mb in range(n_chunks):
                        self._build_backward_layer(mb, layer, serial_dirs=True)
                    self.graph.barrier(f"bwd_layer_barrier.L{layer}")
                if self.update_weights:
                    self._build_updates()
        # Executors that need storage resolution (the multiprocess
        # substrate's shared-memory rebinding and region shipping) reach it
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
                    self._fn_proj(mb, layer, direction, lo, hi),
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

    def _build_forward_layer_outputs(self, mb: int, layer: int) -> None:
        """Per-timestep merge tasks (interior layers) or the head (last)."""
        spec = self.spec
        if layer < spec.num_layers - 1:
            mflops = merge_flops(spec.merge_mode, self.chunk_batches[mb], spec.hidden_size)
            for t in range(self.seq_len):
                self._add(
                    f"merge[{mb}]L{layer}t{t}",
                    self._fn_merge(mb, layer, t),
                    flops=mflops,
                    kind="merge",
                    meta={"mb": mb, "layer": layer, "t": t},
                )
        else:
            self._build_head(mb)

    def _build_forward_layer(self, mb: int, layer: int, serial_dirs: bool = False) -> None:
        """One layer's forward pass: its two cell chains, then its merges
        (interior layers) or the head (last layer).

        One task per chain tile (``self.tiles``; a single step by default,
        ``wavefront_tile`` steps when set, docs/PERF.md).
        Its rule declares every input (or ``zx``) position of the tile, the
        carried ``h`` from below it, and every ``h``/cache slot it
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
        for direction, lo, hi, suffix in self._chain_schedule(serial_dirs):
            self._add(
                f"{direction}[{mb}]L{layer}{suffix}",
                self._fn_cell_fwd_tile(mb, layer, direction, lo, hi),
                flops=step_flops * (hi - lo),
                kind="cell",
                meta=self._cell_meta(mb, layer, direction, lo, hi),
            )
        self._build_forward_layer_outputs(mb, layer)

    def _build_backward_layer(self, mb: int, layer: int, serial_dirs: bool = False) -> None:
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
        for direction, lo, hi, suffix in self._chain_schedule(serial_dirs, descending=True):
            self._add(
                f"{direction}Bwd[{mb}]L{layer}{suffix}",
                self._fn_cell_bwd_tile(mb, layer, direction, lo, hi),
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
                self._fn_last_merge(mb, slot, t_fwd, u_rev),
                flops=mflops,
                kind="merge",
                meta={"mb": mb, "layer": last, "slot": slot},
            )
            self._add(
                f"head[{mb}]s{slot}",
                self._fn_head_fwd(mb, slot),
                flops=hflops,
                kind="head",
                meta={"mb": mb, "slot": slot},
            )
            if self.training:
                self._add(
                    f"loss[{mb}]s{slot}",
                    self._fn_loss(mb, slot, t_label),
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
                self._fn_head_bwd(mb, slot),
                flops=hbflops,
                kind="head_bwd",
                meta={"mb": mb, "slot": slot},
            )
            self._add(
                f"mergeLastBwd[{mb}]s{slot}",
                self._fn_last_merge_bwd(mb, slot, t_fwd, u_rev),
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
                    self._fn_proj_bwd(mb, layer, direction, lo, hi),
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
        """Per-fused-block proj backward and the merge-backward fan-out."""
        spec = self.spec
        mbflops = 2.0 * merge_flops(spec.merge_mode, self.chunk_batches[mb], spec.hidden_size)
        if fused:
            self._build_proj_bwd_tasks(mb, layer)
        if layer > 0:
            below = layer - 1
            for t in range(self.seq_len - 1, -1, -1):
                self._add(
                    f"mergeBwd[{mb}]L{below}t{t}",
                    self._fn_merge_bwd(mb, below, t),
                    flops=mbflops,
                    kind="merge_bwd",
                    meta={"mb": mb, "layer": below, "t": t},
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
                    self._fn_weight_update(layer, direction),
                    flops=uflops,
                    kind="weight_update",
                    meta={"layer": layer, "dir": direction},
                )
        self._add(
            "update.head",
            self._fn_head_update(),
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
    momentum: float = 0.0,
    velocity: Optional[BRNNParams] = None,
    fused_input_projection="off",
    proj_block: Optional[int] = None,
    fusion: str = "gates",
    wavefront_tile: Optional[int] = None,
) -> GraphBuildResult:
    """Build the B-Par task graph for one batch.

    Functional mode: pass ``x (T, B, input_size)`` (plus ``labels`` and
    ``params`` when ``training``).  Cost-only mode: pass ``seq_len`` and
    ``batch`` instead.  ``mbs`` splits the batch into that many
    data-parallel chunks (the paper's ``mbs:N``).  ``serialize_chunks``
    turns the graph into the B-Seq baseline: each chunk's tasks execute
    sequentially, so only data parallelism remains.

    ``fused_input_projection`` (``"on"``/``"off"``/``"auto"``, see
    :func:`resolve_fused_layers`) leaves only the recurrent GEMM on a hoisted
    layer's cell chain: its ``X_t @ W_x`` GEMMs move into per-block ``proj``
    tasks of ``proj_block`` timesteps each (default
    :data:`DEFAULT_PROJ_BLOCK`, clamped to the sequence length) and, in
    training, the weight-gradient panel, ``db`` and ``dX`` into per-block
    ``proj_bwd`` tasks.  Forward results stay bit-identical to the
    sequential oracle; hoisted gradients agree with it to rounding.  The
    default here is ``"off"``, the paper's task-per-cell graph (every
    simulated table and figure builds it); the engines default to ``"auto"``.

    ``fusion`` selects the cell kernels (docs/PERF.md): ``"off"`` runs
    per-gate GEMMs with separate activation passes (and disables projection
    hoisting — the fully unfused reference), ``"gates"`` the stacked gate
    GEMM (default).  ``wavefront_tile`` is the one thing that lengthens a
    chain task: ``None``/``1`` is the paper's task per cell update, ``K > 1``
    cuts every direction chain into ``⌈T/K⌉`` tasks of ``K`` steps (clamped
    to the sequence length), under either kernel and with or without
    hoisting.  Every combination's forward is bitwise identical to the
    default; the backward is bitwise for every tile and gradcheck-exact
    under ``"off"``, whose per-gate data-gradient GEMMs reassociate the
    K-dimension reduction.
    """
    functional = x is not None
    if functional:
        seq_len, batch = int(x.shape[0]), int(x.shape[1])
        if params is None:
            raise ValueError("functional graphs need params")
        if training and labels is None:
            raise ValueError("training graphs need labels")
        x_chunks = split_batch(x, mbs, axis=1)
        if labels is not None:
            label_axis = 0 if spec.head == "many_to_one" else 1
            label_chunks = split_batch(labels, mbs, axis=label_axis)
        else:
            label_chunks = [None] * mbs
        chunks = [
            ChunkState(spec, xc, lc, training) for xc, lc in zip(x_chunks, label_chunks)
        ]
        chunk_batches = [c.batch for c in chunks]
    else:
        if seq_len is None or batch is None:
            raise ValueError("cost-only graphs need seq_len and batch")
        sizes = [len(part) for part in np.array_split(np.arange(batch), mbs)]
        if min(sizes) == 0:
            raise ValueError(f"cannot split batch of {batch} into {mbs} mini-batches")
        chunks = None
        chunk_batches = sizes

    builder = _Builder(
        spec=spec,
        seq_len=seq_len,
        chunk_batches=chunk_batches,
        training=training,
        functional=functional,
        barrier_free=barrier_free,
        update_weights=update_weights,
        lr=lr,
        params=params,
        chunks=chunks,
        serialize_chunks=serialize_chunks,
        momentum=momentum,
        velocity=velocity,
        fused_layers=(
            # the fully unfused baseline also forgoes projection hoisting
            [False] * spec.num_layers
            if fusion == "off"
            else resolve_fused_layers(spec, fused_input_projection, max(chunk_batches))
        ),
        proj_block=proj_block,
        fusion=fusion,
        wavefront_tile=wavefront_tile,
    )
    return builder.build()
