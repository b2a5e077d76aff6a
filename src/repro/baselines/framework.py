"""Per-layer-barrier framework execution model (Keras/PyTorch CPU discipline).

§II of the paper: conventional frameworks process a BRNN layer by running
the forward-order RNN timestep by timestep, then the reverse-order RNN,
then the merges, with a barrier before the next layer starts.  The only
parallelism is *intra-op*: each timestep's fused-gate GEMM is split across
cores by the MKL-parallel/oneDNN thread pool (a fork-join per op).

We build exactly that task structure and run it on the same simulated
machine as B-Par, so the framework's CPU-starvation behaviour (cores idle
at barriers, fork-join sync, NUMA traffic for weights homed on socket 0)
emerges structurally rather than being hard-coded.  Per-framework constants
(op dispatch latency, GEMM efficiency, sync costs) live in
:class:`FrameworkProfile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.models.spec import CELLS, BRNNSpec
from repro.runtime.depgraph import TaskGraph
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import INTERLEAVED_HOME, RegionSpace
from repro.runtime.trace import ExecutionTrace
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import xeon_8160_2s


@dataclass(frozen=True)
class FrameworkProfile:
    """Calibrated constants of one framework's CPU execution path."""

    name: str
    #: dispatch latency charged once per RNN timestep op (graph interpreter,
    #: kernel selection, oneDNN descriptor handling, ...)
    op_overhead_s: float
    #: sustained fraction of the machine's GEMM rate the framework reaches
    gemm_eff_base: float
    #: hidden size at which the efficiency halves again (0 = size-independent);
    #: models e.g. PyTorch's non-fused RNN path degrading for wide layers
    gemm_eff_hidden_ref: float
    #: fork-join synchronisation cost per intra-op parallel region, scaled
    #: by log2(ways)
    sync_s: float
    #: per-layer barrier cost
    barrier_s: float
    #: fixed per-batch cost (input staging, session dispatch, feed glue)
    batch_fixed_s: float = 0.0
    #: minimum GEMM flops that justify one extra intra-op thread
    min_intra_work: float = 4.0e6
    #: cap on intra-op ways (thread-pool size limits)
    max_intra: int = 48
    #: parallel-GEMM efficiency decay: splitting a GEMM over ``w`` ways
    #: retains ``1 / (1 + alpha * (w - 1))`` of the per-core rate (thread
    #: wake-up, panel sharing, bandwidth contention inside MKL-parallel)
    intra_eff_alpha: float = 0.03

    def gemm_eff(self, hidden: int) -> float:
        if self.gemm_eff_hidden_ref <= 0:
            return self.gemm_eff_base
        return self.gemm_eff_base / (1.0 + hidden / self.gemm_eff_hidden_ref)

    def intra_eff(self, ways: int) -> float:
        return 1.0 / (1.0 + self.intra_eff_alpha * max(0, ways - 1))

    def intra_ways(self, flops: float, n_cores: int) -> int:
        by_work = max(1, int(flops // self.min_intra_work))
        return max(1, min(n_cores, self.max_intra, by_work))


class FrameworkCPUEngine:
    """Simulated per-layer-barrier BRNN execution for one framework profile."""

    def __init__(
        self,
        spec: BRNNSpec,
        profile: FrameworkProfile,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        self.spec = spec
        self.profile = profile
        self.machine = machine or xeon_8160_2s()

    @property
    def name(self) -> str:
        return self.profile.name

    # -- graph construction ----------------------------------------------------

    def build_graph(self, seq_len: int, batch: int, n_cores: int, training: bool = True) -> TaskGraph:
        """Annotation-only task graph of one batch under barrier discipline."""
        spec, prof = self.spec, self.profile
        g = TaskGraph()
        rs = RegionSpace()
        isz = np.dtype(spec.dtype).itemsize
        act_bytes = batch * spec.hidden_size * isz * CELLS[spec.cell].state_arrays

        def w_region(layer: int, direction: str):
            (wr, wc), (bn,) = spec.cell_param_shapes(layer)
            region = rs.get(("W", layer, direction), (wr * wc + bn) * isz)
            region.home = INTERLEAVED_HOME  # shared weights: page-interleaved
            return region

        def w_panel(layer: int, direction: str, p: int, ways: int):
            """The 1/ways weight panel an intra-op slice actually reads."""
            (wr, wc), (bn,) = spec.cell_param_shapes(layer)
            region = rs.get(
                ("Wpanel", layer, direction, p, ways), (wr * wc + bn) * isz // ways
            )
            region.home = INTERLEAVED_HOME
            return region

        def act(layer: int, direction: str, t: int, phase: str):
            return rs.get(("act", phase, layer, direction, t), act_bytes, streaming=True)

        def merged(layer: int, t: int, phase: str):
            return rs.get(("m", phase, layer, t), batch * spec.merged_size * isz, streaming=True)

        def add_op(name, kind, flops, hidden, layer, direction, t, phase, extra_in=(), rows=None):
            """One framework op = fork of intra-op subtasks + a join."""
            ways = prof.intra_ways(flops, n_cores)
            eff = prof.gemm_eff(hidden) * prof.intra_eff(ways)
            rows_per_slice = max(1, (rows if rows is not None else batch) // ways)
            w = w_region(layer, direction)
            prev = [act(layer, direction, t - 1, phase)] if t > 0 else []
            if ways == 1:
                # No fork-join: the op is one sequential kernel call.
                g.add_task(
                    f"{name}.p0",
                    None,
                    ins=[w] + prev + list(extra_in),
                    outs=[act(layer, direction, t, phase)],
                    flops=flops / eff,
                    kind=kind,
                    meta={
                        "layer": layer,
                        "dir": direction,
                        "t": t,
                        "reuse": min(6.0, 1.0 + rows_per_slice / 32.0),
                        "extra_overhead_s": prof.op_overhead_s + prof.sync_s,
                    },
                )
                return
            slices = []
            for p in range(ways):
                s = rs.get((name, "slice", p), act_bytes // ways, streaming=True)
                slices.append(s)
                g.add_task(
                    f"{name}.p{p}",
                    None,
                    ins=[w_panel(layer, direction, p, ways)] + prev + list(extra_in),
                    outs=[s],
                    flops=flops / (ways * eff),
                    kind=kind,
                    meta={
                        "layer": layer,
                        "dir": direction,
                        "t": t,
                        "reuse": min(6.0, 1.0 + rows_per_slice / 32.0),
                    },
                )
            g.add_task(
                f"{name}.join",
                None,
                ins=slices,
                outs=[act(layer, direction, t, phase)],
                kind="join",
                meta={
                    "extra_overhead_s": prof.op_overhead_s
                    + prof.sync_s * math.log2(max(2, ways))
                },
            )

        # ---- forward ----------------------------------------------------------
        # §II: a layer runs its forward-order RNN timestep by timestep, THEN
        # its reverse-order RNN, then the merges — the two direction chains
        # are serialised (``dir_gate`` threads the fwd chain's final
        # activation into the rev chain's first op).
        for layer in range(spec.num_layers):
            flops = cell_fwd_flops(spec, batch, layer)
            for direction in ("fwd", "rev"):
                for t in range(seq_len):
                    extra = []
                    if layer > 0:
                        pos = t if direction == "fwd" else seq_len - 1 - t
                        extra = [merged(layer - 1, pos, "fwd")]
                    if direction == "rev" and t == 0:
                        extra = extra + [act(layer, "fwd", seq_len - 1, "fwd")]
                    add_op(
                        f"{prof.name}.f.L{layer}.{direction}.t{t}",
                        "cell",
                        flops,
                        spec.hidden_size,
                        layer,
                        direction,
                        t,
                        "fwd",
                        extra_in=extra,
                    )
            last = spec.num_layers - 1
            n_merge = seq_len if (layer < last or spec.head == "many_to_many") else 1
            for t in range(n_merge):
                g.add_task(
                    f"{prof.name}.merge.L{layer}.t{t}",
                    None,
                    ins=[act(layer, "fwd", t, "fwd"), act(layer, "rev", seq_len - 1 - t, "fwd")],
                    outs=[merged(layer, t, "fwd")],
                    flops=batch * spec.hidden_size,
                    kind="merge",
                    meta={"layer": layer},
                )
            g.barrier(f"{prof.name}.layer_barrier.L{layer}")
            bt = g.tasks[-1]
            bt.meta["extra_overhead_s"] = prof.barrier_s

        if not training:
            return g

        # ---- backward (reverse layer order, same discipline, ~2x flops) -----------
        for layer in range(spec.num_layers - 1, -1, -1):
            flops = cell_bwd_flops(spec, batch, layer)
            for direction in ("fwd", "rev"):
                # u is the position in the backward chain (t = T-1-u); the
                # op at u re-reads the forward activation it differentiates.
                for u in range(seq_len):
                    extra = [act(layer, direction, seq_len - 1 - u, "fwd")]
                    if direction == "rev" and u == 0:
                        extra.append(act(layer, "fwd", seq_len - 1, "bwd"))
                    add_op(
                        f"{prof.name}.b.L{layer}.{direction}.u{u}",
                        "cell_bwd",
                        flops,
                        spec.hidden_size,
                        layer,
                        direction,
                        u,
                        "bwd",
                        extra_in=extra,
                    )
            g.barrier(f"{prof.name}.bwd_barrier.L{layer}")
            g.tasks[-1].meta["extra_overhead_s"] = prof.barrier_s

        # ---- weight update ----------------------------------------------------
        for layer in range(spec.num_layers):
            (wr, wc), (bn,) = spec.cell_param_shapes(layer)
            for direction in ("fwd", "rev"):
                g.add_task(
                    f"{prof.name}.update.L{layer}.{direction}",
                    None,
                    inouts=[w_region(layer, direction)],
                    flops=2.0 * (wr * wc + bn),
                    kind="weight_update",
                    meta={},
                )
        return g

    # -- timing ------------------------------------------------------------------

    def batch_time(
        self,
        seq_len: int,
        batch: int,
        n_cores: Optional[int] = None,
        training: bool = True,
        warm: bool = True,
    ) -> Tuple[float, ExecutionTrace]:
        """Simulated single-batch time in seconds (+ the trace).

        ``warm=True`` runs one untimed batch first so the weight regions are
        NUMA-homed and cached as in a steady-state training loop.
        """
        n_cores = n_cores or self.machine.n_cores
        graph = self.build_graph(seq_len, batch, n_cores, training)
        sim = SimulatedExecutor(self.machine, n_cores=n_cores, scheduler="fifo")
        if warm:
            # Same graph (same regions) so homes/residency carry over.
            sim.run(graph)
        trace = sim.run(graph)
        return trace.makespan + self.profile.batch_fixed_s, trace
