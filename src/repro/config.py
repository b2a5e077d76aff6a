"""The unified execution-configuration API (docs/API.md).

:class:`ExecutionConfig` is the single object that names *how* a graph
runs — substrate, worker count, scheduler policy, hybrid-parallelism and
fusion knobs, and the observability attachments (``metrics``/``hooks``)
— accepted by :class:`~repro.core.bpar.BParEngine`,
:class:`~repro.core.bseq.BSeqEngine` and
:class:`~repro.serve.engine.InferenceEngine` through one ``config=``
parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.models.cells import FUSION_MODES
from repro.obs.hooks import ProfilingHooks
from repro.obs.registry import MetricsRegistry

@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable description of one execution setup.

    Parameters
    ----------
    executor:
        ``"threaded"`` (real worker threads), ``"process"`` (pinned worker
        processes over shared memory — true parallelism past the GIL, see
        docs/EXECUTORS.md), ``"sim"`` (deterministic modelled machine), a
        ready executor instance, or ``None`` for the owning engine's
        default substrate.
    n_workers:
        Worker threads (threaded), worker processes (process), or
        simulated cores (sim); ``None`` means the substrate default
        (host-sized pool / whole modelled machine).
    scheduler:
        Ready-queue policy: ``"fifo"``/``"lifo"``/``"locality"``/
        ``"steal"``/``"fuzz:SEED"``.
    mbs:
        Data-parallel chunks per batch (the paper's hybrid-parallelism
        knob), clamped to the batch size at build time.
    barrier_free:
        Build the barrier-free graph (B-Par) rather than per-layer
        barriers.
    fused_input_projection / proj_block:
        Leave only the recurrent GEMM (``H·W_h`` forward, ``dH_prev``
        backward) on the cell chain: a hoisted layer's ``X·W_x`` and, in
        training, its whole weight-gradient panel, ``db`` and ``dX`` run
        as per-block tasks of ``proj_block`` timesteps (default 16).
        ``"auto"`` (the default) hoists the layers whose per-step weight
        panel outgrows the cache, by a floor from a recorded sweep
        (:func:`~repro.core.graph_builder.plan_granularity`,
        docs/PERF.md) — nothing on small models; ``"on"`` hoists every
        layer; ``"off"`` restores the paper's task-per-cell graph, whose
        gradients are bitwise the sequential oracle's (hoisted gradients
        agree to rounding; forward results are bitwise either way).
    fusion:
        The cell kernels (docs/PERF.md): ``"gates"`` — the stacked gate
        GEMM (default); ``"off"`` — the per-gate reference kernels, one
        GEMM pair and one activation pass per gate (also disables
        projection hoisting).  Bitwise the same forward.
    wavefront_tile:
        Timesteps per cell-chain task: ``None`` (the default) is the
        granularity policy's tile — one task per direction chain for a
        shape the threaded or serial executor runs on one thread, else the
        paper's task per cell update
        (:func:`~repro.core.graph_builder.plan_granularity`); ``1`` forces
        the task per cell update; ``K > 1`` cuts every direction chain into
        ``⌈T/K⌉`` tasks of ``K`` steps (clamped to the sequence length),
        under either kernel and with or without hoisting.  Same bits,
        forward and backward, at every tile.
    seed:
        Parameter-initialisation seed used when an engine creates its own
        weights.
    compile:
        Graph compilation & plan replay (docs/COMPILE.md): ``"off"`` —
        dynamic dependence resolution every batch (the default);
        ``"on"`` — every batch shape is compiled into a cached
        :class:`~repro.compile.plan.CompiledPlan` on first sight and
        replayed on every repeat.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` the executors
        publish per-run counters into (``None`` disables — the default
        and zero-overhead path).
    hooks:
        Live :class:`~repro.obs.hooks.ProfilingHooks` invoked during
        execution (``None`` disables).
    """

    executor: Any = None
    n_workers: Optional[int] = None
    scheduler: str = "locality"
    mbs: int = 1
    barrier_free: bool = True
    fused_input_projection: str = "auto"
    proj_block: Optional[int] = None
    fusion: str = "gates"
    wavefront_tile: Optional[int] = None
    seed: int = 0
    compile: str = "off"
    metrics: Optional[MetricsRegistry] = None
    hooks: Optional[ProfilingHooks] = None

    def __post_init__(self) -> None:
        if self.mbs < 1:
            raise ValueError("mbs must be >= 1")
        if self.fused_input_projection not in ("off", "on", "auto"):
            raise ValueError(
                "fused_input_projection must be 'off', 'on' or 'auto', got "
                f"{self.fused_input_projection!r}"
            )
        if self.compile not in ("off", "on"):
            raise ValueError(f"compile must be 'off' or 'on', got {self.compile!r}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(
                f"fusion must be one of {'/'.join(FUSION_MODES)}, got {self.fusion!r}"
            )
        if self.wavefront_tile is not None and self.wavefront_tile < 1:
            raise ValueError("wavefront_tile must be >= 1")
        if self.proj_block is not None and self.proj_block < 1:
            raise ValueError("proj_block must be >= 1")

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

