"""The unified execution-configuration API (docs/API.md).

:class:`ExecutionConfig` is the single object that names *how* a graph
runs — substrate, worker count, hybrid-parallelism and
granularity knobs, and the metrics registry a run publishes into — accepted by :class:`~repro.core.bpar.BParEngine`,
:class:`~repro.core.bseq.BSeqEngine` and
:class:`~repro.serve.engine.InferenceEngine` through one ``config=``
parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.registry import MetricsRegistry

#: the executors a config names as a string
EXECUTORS = ("threaded", "process", "sim")


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable description of one execution setup.

    Parameters
    ----------
    executor:
        ``"threaded"`` (real worker threads), ``"process"`` (pinned worker
        processes over shared memory — true parallelism past the GIL, see
        docs/EXECUTORS.md), ``"sim"`` (deterministic modelled machine), a
        ready executor instance (an object with ``run`` and
        ``n_workers``), or ``None`` for the owning engine's default
        substrate; anything else is a ``ValueError`` here.  A named
        executor releases tasks under the paper's ``"locality"`` policy;
        to run another (``"fifo"``, ``"fuzz:SEED"``) pass an instance
        built with it.
    n_workers:
        Worker threads (threaded), worker processes (process), or
        simulated cores (sim), at least 1; ``None`` means the substrate
        default (host-sized pool / whole modelled machine).
    mbs:
        Data-parallel chunks per batch (the paper's hybrid-parallelism
        knob), clamped to the batch size at build time.
    barrier_free:
        Build the barrier-free graph (B-Par) rather than per-layer
        barriers.
    fused_input_projection:
        Leave only the recurrent GEMM (``H·W_h`` forward, ``dH_prev``
        backward) on the cell chain: a hoisted layer's ``X·W_x`` and, in
        training, its whole weight-gradient panel, ``db`` and ``dX`` run
        as per-block tasks of
        :data:`~repro.core.graph_builder.DEFAULT_PROJ_BLOCK` timesteps.
        ``"auto"`` (the default) hoists the layers whose per-step weight
        panel outgrows the cache, by a floor from a recorded sweep
        (:func:`~repro.core.graph_builder.plan_granularity`,
        docs/PERF.md) — nothing on small models; ``"on"`` hoists every
        layer; ``"off"`` restores the paper's task-per-cell graph, whose
        gradients are bitwise the sequential oracle's (hoisted gradients
        are bitwise at ``proj_block=1``, to rounding over longer blocks;
        forward results are bitwise either way).
    wavefront_tile:
        Timesteps per cell-chain and merge task: ``None`` (the default) is
        the granularity policy's tile — the sequence, one task per chain,
        for a shape the threaded or serial executor runs on no more threads
        than a layer has chains (``2·mbs``; on one thread the forward
        chains are paired too), else the paper's task per cell update
        (:func:`~repro.core.graph_builder.plan_granularity`); ``1`` forces
        the task per cell update; ``K > 1`` cuts every chain and every
        layer's merges into ``⌈T/K⌉`` tasks of ``K`` steps (clamped to the
        sequence length), with or without hoisting.
        Same bits, forward and backward, at every tile.
    compile:
        Per-shape serving cache (docs/COMPILE.md): ``"off"`` — every
        batch builds its graph (the default); ``"on"`` — the serving
        engine keeps one entry per batch shape from its first sight: on
        a real executor the shape's graph build, rebound and run again on
        every repeat (dependences still resolve dynamically); on ``sim``
        a compiled :class:`~repro.compile.plan.CompiledPlan` and its
        replayed service time.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` the executors
        publish per-run counters into (``None`` disables — the default
        and zero-overhead path).
    """

    executor: Any = None
    n_workers: Optional[int] = None
    mbs: int = 1
    barrier_free: bool = True
    fused_input_projection: str = "auto"
    wavefront_tile: Optional[int] = None
    compile: str = "off"
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        ex = self.executor
        if isinstance(ex, str):
            known = ex in EXECUTORS
        else:
            known = ex is None or hasattr(ex, "run") and hasattr(ex, "n_workers")
        if not known:
            raise ValueError(
                f"executor must be None, one of {EXECUTORS} or an object with run "
                f"and n_workers, got {ex!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(f"n_workers must be None or >= 1, got {self.n_workers!r}")
        if self.mbs < 1:
            raise ValueError("mbs must be >= 1")
        if self.fused_input_projection not in ("off", "on", "auto"):
            raise ValueError(
                "fused_input_projection must be 'off', 'on' or 'auto', got "
                f"{self.fused_input_projection!r}"
            )
        if self.compile not in ("off", "on"):
            raise ValueError(f"compile must be 'off' or 'on', got {self.compile!r}")
        if self.wavefront_tile is not None and self.wavefront_tile < 1:
            raise ValueError("wavefront_tile must be >= 1")

    #: ``config.replace(**changes)``: a copy with ``changes`` applied
    replace = dataclasses.replace

