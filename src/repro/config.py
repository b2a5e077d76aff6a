"""The unified execution-configuration API (docs/API.md).

:class:`ExecutionConfig` is the single object that names *how* a graph
runs — substrate, worker count, scheduler policy, hybrid-parallelism and
fusion knobs, and the observability attachments (``metrics``/``hooks``)
— accepted by :class:`~repro.core.bpar.BParEngine`,
:class:`~repro.core.bseq.BSeqEngine`,
:class:`~repro.serve.engine.InferenceEngine` and the CLI through one
``config=`` parameter.

:func:`add_execution_args` / :func:`config_from_args` are the argparse
half: every ``python -m repro`` subcommand shares one execution flag
group instead of re-declaring it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.models.cells import FUSION_MODES
from repro.obs.hooks import ProfilingHooks
from repro.obs.registry import MetricsRegistry

#: fields excluded from :meth:`ExecutionConfig.fingerprint` — observability
#: attachments never change what a graph computes or how it is scheduled
_NON_EXECUTION_FIELDS = ("metrics", "hooks")


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
        (:func:`~repro.core.graph_builder.resolve_fused_layers`,
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
        Timesteps per cell-chain task: ``None`` (stored for ``1`` too) is
        the paper's task per cell update; ``K > 1`` cuts every direction
        chain into ``⌈T/K⌉`` tasks of ``K`` steps (clamped to the sequence
        length), under either kernel and with or without hoisting.  Same
        bits, forward and backward, at every tile.
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
        if self.wavefront_tile == 1:  # the same graph as None: one fingerprint
            object.__setattr__(self, "wavefront_tile", None)
        if self.proj_block is not None and self.proj_block < 1:
            raise ValueError("proj_block must be >= 1")

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable hash of the execution-relevant fields (hex, 16 chars).

        Excludes the observability attachments (``metrics``/``hooks``) —
        two configs that execute identically fingerprint identically even
        when only one carries a registry.  Used as the plan-cache key
        (docs/COMPILE.md) and for BENCH record provenance; stable across
        processes and runs (sha256 of a canonical JSON encoding).
        Executor *instances* hash by type name: a fresh pool of the same
        substrate executes the same plan.
        """
        payload = {}
        for f in dataclasses.fields(self):
            if f.name in _NON_EXECUTION_FIELDS:
                continue
            value = getattr(self, f.name)
            if f.name == "executor" and value is not None and not isinstance(value, str):
                value = type(value).__name__
            payload[f.name] = value
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- CLI integration -----------------------------------------------------------

def add_execution_args(parser: argparse.ArgumentParser) -> None:
    """The one shared "execution options" argparse group.

    Every ``python -m repro`` subcommand that runs graphs reads these
    flags; :func:`config_from_args` turns the parsed namespace back into
    an :class:`ExecutionConfig`.
    """
    g = parser.add_argument_group("execution options")
    g.add_argument("--executor", choices=("sim", "threaded", "process"), default="sim",
                   help="simulated machine (deterministic), real worker "
                        "threads, or pinned worker processes over shared "
                        "memory (docs/EXECUTORS.md)")
    g.add_argument("--cores", type=int, default=None,
                   help="simulated cores / worker threads / worker processes "
                        "(default: whole modelled machine or host-sized pool)")
    g.add_argument("--scheduler", type=str, default="locality",
                   help="ready-queue policy: fifo|lifo|locality|steal|fuzz:SEED")
    g.add_argument("--mbs", type=int, default=4,
                   help="data-parallel chunks per batch (hybrid parallelism)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--fused-input-projection", choices=("on", "off", "auto"),
                   default="auto",
                   help="leave only the recurrent GEMM on the cell chain: "
                        "every layer | none | where the weight panel "
                        "outgrows the cache (docs/PERF.md)")
    g.add_argument("--proj-block", type=int, default=None,
                   help="timesteps per hoisted projection task (default 16)")
    g.add_argument("--fusion", choices=FUSION_MODES, default="gates",
                   help="cell kernels (docs/PERF.md): per-gate reference "
                        "GEMMs | stacked gate GEMM")
    g.add_argument("--wavefront-tile", type=int, default=None,
                   help="timesteps per cell-chain task (default 1, the "
                        "paper's task per cell update; clamped to T)")
    g.add_argument("--compile", choices=("off", "on"), default="off",
                   help="compile graphs into cached replay plans "
                        "(docs/COMPILE.md)")


def config_from_args(
    args: argparse.Namespace,
    metrics: Optional[MetricsRegistry] = None,
    hooks: Optional[ProfilingHooks] = None,
    **overrides,
) -> ExecutionConfig:
    """:class:`ExecutionConfig` from an :func:`add_execution_args` namespace."""
    cfg = ExecutionConfig(
        executor=args.executor,
        n_workers=args.cores,
        scheduler=args.scheduler,
        mbs=args.mbs,
        seed=args.seed,
        fused_input_projection=args.fused_input_projection,
        proj_block=args.proj_block,
        fusion=getattr(args, "fusion", "gates"),
        wavefront_tile=getattr(args, "wavefront_tile", None),
        compile=getattr(args, "compile", "off"),
        metrics=metrics,
        hooks=hooks,
    )
    return cfg.replace(**overrides) if overrides else cfg
