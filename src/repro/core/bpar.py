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
from repro.core.graph_builder import GraphBuildResult, build_brnn_graph, plan_granularity
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.trace import ExecutionTrace


def _host_workers(config: ExecutionConfig) -> int:
    """``n_workers``, or the host's core count (capped: tasks are GEMM-bound)."""
    if config.n_workers is not None:
        return config.n_workers
    return min(8, os.cpu_count() or 1)


def resolve_executor(config: ExecutionConfig):
    """Executor instance for a config's ``executor`` field.

    ``None``/``"threaded"`` → host threads (capped: tasks are GEMM-bound);
    ``"process"`` → pinned worker processes over shared memory (true
    parallelism past the GIL, see docs/EXECUTORS.md); ``"sim"`` → the
    modelled 48-core Xeon; each under the paper's ``"locality"`` policy.
    A ready executor instance passes through unchanged (the config's
    ``n_workers``/``metrics``/``hooks`` are then the instance's
    responsibility).
    """
    ex = config.executor
    if ex is None or ex == "threaded":
        return ThreadedExecutor(
            _host_workers(config), metrics=config.metrics, hooks=config.hooks
        )
    if ex == "process":
        from repro.runtime.mpexec import MultiprocessExecutor

        return MultiprocessExecutor(
            _host_workers(config), metrics=config.metrics, hooks=config.hooks
        )
    if ex == "sim":
        from repro.runtime.simexec import SimulatedExecutor
        from repro.simarch.presets import xeon_8160_2s

        return SimulatedExecutor(
            xeon_8160_2s(), n_cores=config.n_workers, metrics=config.metrics,
            hooks=config.hooks,
        )
    return ex


def run_planned(executor, graph, threads: int) -> ExecutionTrace:
    """Run ``graph``: a :class:`ThreadedExecutor` on the planned ``threads``,
    any other substrate as it is."""
    if isinstance(executor, ThreadedExecutor):
        return executor.run(graph, threads=threads)
    return executor.run(graph)


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
            params if params is not None else BRNNParams.initialize(spec, 0)
        )
        self.executor = resolve_executor(cfg)
        self.mbs = cfg.mbs
        self.barrier_free = cfg.barrier_free
        self.momentum = momentum
        self.metrics = cfg.metrics
        self.hooks = cfg.hooks
        #: classical-momentum velocity buffers, allocated on first use
        self.velocity = BRNNParams.zeros_like(spec) if momentum > 0.0 else None
        self.last_trace: Optional[ExecutionTrace] = None
        #: the one build an engine keeps, the ``Granularity`` it was made with
        #: and the call it serves: ``(x.shape, x.dtype, training, update_weights)``
        self.last_result: Optional[GraphBuildResult] = None
        self.granularity = None
        self._last_call: Optional[tuple] = None

    # -- functional execution ---------------------------------------------------

    def _run(self, x: np.ndarray, training=True, labels=None, **overrides) -> GraphBuildResult:
        """Execute the functional graph of batch ``x`` at the granularity
        planned for its shape.

        A call like the last one (same shape, dtype, ``training`` and
        ``update_weights``) rebinds its inputs into the last build
        (``build_brnn_graph(out=...)``); any other plans and builds afresh,
        over copies of ``x`` and ``labels`` that later rebinds write into.
        A trailing short batch is a new shape with fewer chunks of its own.
        """
        call = (x.shape, x.dtype, training, overrides.get("update_weights", True))
        out = self.last_result
        if out is None or call != self._last_call or out.params is not self.params:
            seq_len, batch = x.shape[:2]
            self.granularity = plan_granularity(
                self.spec, batch, seq_len, training, self.executor.n_workers, self.executor,
                self.config,
            )
            out, x, labels = None, np.array(x), None if labels is None else np.array(labels)
        grain = self.granularity
        result = build_brnn_graph(
            self.spec, x=x, labels=labels, params=self.params, training=training,
            mbs=grain.mbs, barrier_free=self.barrier_free,
            serialize_chunks=self.serialize_chunks, fused_input_projection=grain.hoisted,
            wavefront_tile=grain.tile, paired=grain.paired,
            out=out, **overrides,
        )
        self.last_trace = run_planned(self.executor, result.graph, grain.threads)
        self.last_result, self._last_call = result, call
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
