"""The B-Par execution engine.

Front-end over :func:`repro.core.graph_builder.build_brnn_graph` plus an
executor: inference and single-batch training with hybrid data (``mbs``)
and model (task-level) parallelism, no per-layer barriers.  Works with the
threaded executor (real concurrency) or the simulated executor (modelled
48-core machine); with ``mbs=1`` results are bit-identical to the
sequential oracle under every schedule.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graph_builder import GraphBuildResult, build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.trace import ExecutionTrace


def _host_workers(config: ExecutionConfig) -> int:
    """``n_workers``, or the host's core count (capped: tasks are GEMM-bound)."""
    if config.n_workers is not None:
        return config.n_workers
    return min(8, os.cpu_count() or 1)


def default_executor(config: Optional[ExecutionConfig] = None) -> ThreadedExecutor:
    """Threaded executor sized to the host (capped: tasks are GEMM-bound)."""
    cfg = config if config is not None else ExecutionConfig()
    n = _host_workers(cfg)
    return ThreadedExecutor(
        n, scheduler_factory=cfg.scheduler, metrics=cfg.metrics, hooks=cfg.hooks
    )


def resolve_executor(config: ExecutionConfig):
    """Executor instance for a config's ``executor`` field.

    ``None``/``"threaded"`` → host threads; ``"process"`` → pinned worker
    processes over shared memory (true parallelism past the GIL, see
    docs/EXECUTORS.md); ``"sim"`` → the modelled 48-core Xeon; a ready
    executor instance passes through unchanged (the config's
    ``n_workers``/``scheduler``/``metrics``/``hooks`` are then the
    instance's responsibility).
    """
    ex = config.executor
    if ex is None or ex == "threaded":
        return default_executor(config)
    if ex == "process":
        from repro.runtime.mpexec import MultiprocessExecutor

        return MultiprocessExecutor(
            _host_workers(config),
            scheduler_factory=config.scheduler,
            metrics=config.metrics,
            hooks=config.hooks,
        )
    if ex == "sim":
        from repro.runtime.simexec import SimulatedExecutor
        from repro.simarch.presets import xeon_8160_2s

        return SimulatedExecutor(
            xeon_8160_2s(),
            n_cores=config.n_workers,
            scheduler=config.scheduler,
            metrics=config.metrics,
            hooks=config.hooks,
        )
    if isinstance(ex, str):
        raise ValueError(
            f"unknown executor name {ex!r} (use 'threaded', 'process' or 'sim')"
        )
    return ex


class BParEngine:
    """Barrier-free task-parallel BRNN training and inference.

    Construct with ``config=ExecutionConfig(...)`` (docs/API.md).
    """

    #: builder flag distinguishing B-Par from B-Seq (overridden by BSeqEngine)
    serialize_chunks = False
    name = "B-Par"

    def __init__(
        self,
        spec: BRNNSpec,
        params: Optional[BRNNParams] = None,
        *,
        config: Optional[ExecutionConfig] = None,
        momentum: float = 0.0,
    ) -> None:
        cfg = config if config is not None else ExecutionConfig()
        self.spec = spec
        self.config = cfg
        self.params = (
            params if params is not None else BRNNParams.initialize(spec, cfg.seed)
        )
        self.executor = resolve_executor(cfg)
        self.mbs = cfg.mbs
        self.barrier_free = cfg.barrier_free
        self.momentum = momentum
        #: "on"/"off"/"auto": take every GEMM but the recurrent one off the
        #: cell chain (:func:`~repro.core.graph_builder.resolve_fused_layers`)
        self.fused_input_projection = cfg.fused_input_projection
        self.metrics = cfg.metrics
        self.hooks = cfg.hooks
        #: classical-momentum velocity buffers, allocated on first use
        self.velocity = BRNNParams.zeros_like(spec) if momentum > 0.0 else None
        self.last_trace: Optional[ExecutionTrace] = None
        self.last_result: Optional[GraphBuildResult] = None

    def _effective_mbs(self, batch: int) -> int:
        """Chunk count for this batch: ``mbs`` clamped to the batch size.

        The graph is rebuilt per batch (§III-B), so a trailing short batch
        simply gets fewer data-parallel chunks.
        """
        return max(1, min(self.mbs, batch))

    # -- functional execution ---------------------------------------------------

    def _build(self, **overrides) -> GraphBuildResult:
        """:func:`build_brnn_graph` with this engine's builder settings."""
        kwargs = dict(
            mbs=self.mbs,
            barrier_free=self.barrier_free,
            serialize_chunks=self.serialize_chunks,
            fused_input_projection=self.fused_input_projection,
            proj_block=self.config.proj_block,
            fusion=self.config.fusion,
            wavefront_tile=self.config.wavefront_tile,
        )
        kwargs.update(overrides)
        return build_brnn_graph(self.spec, **kwargs)

    def _run(self, x: np.ndarray, **overrides) -> GraphBuildResult:
        """Build the functional graph of batch ``x`` and execute it."""
        result = self._build(
            x=x, params=self.params, mbs=self._effective_mbs(x.shape[1]), **overrides
        )
        self.last_trace = self.executor.run(result.graph)
        self.last_result = result
        return result

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference on one batch ``x (T, B, input_size)``; returns logits."""
        return self._run(x, training=False).logits()

    def train_batch(self, x: np.ndarray, labels: np.ndarray, lr: float = 0.05) -> float:
        """One SGD step on one batch; returns the batch mean loss.

        Forward, backward, gradient reduction across mini-batch chunks, and
        the weight update all run inside a single barrier-free task graph.
        """
        result = self._run(
            x, labels=labels, lr=lr, momentum=self.momentum, velocity=self.velocity
        )
        return result.mean_loss()

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """Loss + combined gradients without updating weights (for tests)."""
        result = self._run(x, labels=labels, update_weights=False)
        return result.mean_loss(), result.logits(), result.combined_grads()
