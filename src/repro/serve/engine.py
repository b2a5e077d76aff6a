"""The serving-side model executor.

An :class:`InferenceEngine` owns one compiled model (a
:class:`~repro.models.spec.BRNNSpec` plus parameters) and turns a cut
:class:`~repro.serve.batcher.Batch` into a barrier-free task graph
(:func:`~repro.core.graph_builder.build_brnn_graph`, inference mode) that
runs on one of three substrates:

* ``executor="sim"`` — cost-only graphs on the
  :class:`~repro.runtime.simexec.SimulatedExecutor` (default: the paper's
  48-core Xeon).  Service times are deterministic, so serving behaviour
  (queueing, batching, shedding) can be studied bit-reproducibly at
  paper scale.  Identically-shaped batches cost the same in steady state,
  so per-shape service times are computed once (with a cache-warming run,
  as in :func:`repro.harness.simtime.simulated_batch_time`) and memoised.
* ``executor="threaded"`` — functional graphs with real NumPy payloads on
  the :class:`~repro.runtime.executor.ThreadedExecutor`; service time is
  measured wall time and logits are returned.
* ``executor="process"`` — the same functional path on the
  :class:`~repro.runtime.mpexec.MultiprocessExecutor` (pinned worker
  processes over shared memory; docs/EXECUTORS.md).  Bitwise identical to
  ``threaded``, warm shapes included — the engine code below is
  substrate-blind between the two.

An executor instance serves as the training engines' does: a
:class:`~repro.runtime.simexec.SimulatedExecutor` on the ``sim`` path with
its own machine, any other on the functional path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compile import PlanCache, compile_graph
from repro.config import ExecutionConfig
from repro.core.bpar import resolve_executor, run_planned
from repro.core.graph_builder import build_brnn_graph, plan_granularity
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.trace import ExecutionTrace
from repro.serve.batcher import Batch
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import xeon_8160_2s

#: the config an engine built without ``config=`` runs under: deterministic
#: simulated substrate, every layer hoisted (in the cost model the critical
#: path shrinks for every layer shape)
SERVE_DEFAULTS = ExecutionConfig(executor="sim", fused_input_projection="on")

#: per-batch cost outside the task graph (input staging, graph-creation
#: bring-up) charged in ``sim`` mode, the quantity dynamic batching
#: amortises; :func:`~repro.harness.simtime.simulated_batch_time` charges
#: it too
BATCH_FIXED_S = 8e-3


def is_simulated(config: Optional[ExecutionConfig]) -> bool:
    """Whether an engine under ``config`` (``None``: :data:`SERVE_DEFAULTS`)
    serves cost-only graphs on a simulated machine."""
    ex = (config if config is not None else SERVE_DEFAULTS).executor
    return ex is None or ex == "sim" or isinstance(ex, SimulatedExecutor)


@dataclass
class BatchExecution:
    """Outcome of executing one batch."""

    service_time_s: float
    trace: ExecutionTrace
    logits: Optional[np.ndarray] = None
    #: served from the shape's cache entry (plan-cache hit): its build
    #: rebound and run (functional) or its memoised service time (sim)
    warm: bool = False


class InferenceEngine:
    """Executes batches of a fixed model on a fixed substrate.

    Parameters
    ----------
    spec:
        The served model architecture.
    config:
        An :class:`~repro.config.ExecutionConfig` naming the substrate,
        worker count, ``mbs``, hoisting policy and the metrics registry
        a run publishes into.  ``executor``
        is ``"sim"`` (deterministic simulated machine, the default),
        ``"threaded"`` (real worker threads, real numerics) or
        ``"process"`` (pinned worker processes over shared memory, real
        numerics past the GIL), or an executor instance (a
        :class:`~repro.runtime.simexec.SimulatedExecutor` simulates its own
        machine, any other runs real numerics); ``n_workers`` is the
        simulated core count under ``sim`` (default: the whole machine).
        Larger batches need ``mbs>1`` to spread across the simulated 48
        cores.
        Each batch shape's granularity comes from
        :func:`~repro.core.graph_builder.plan_granularity`:
        ``fused_input_projection="auto"`` means the same on every
        substrate, the layers where hoisting pays on a real host; a shape
        the threaded executor runs on one thread is built as one task per
        layer per pass (``n_workers=1`` always is), every other shape as
        the paper's task per cell update, unless ``wavefront_tile`` says.

    With ``config.compile="on"`` the engine keeps its own in-memory
    :class:`~repro.compile.cache.PlanCache` keyed by the batch shape
    ``(padded_len, size)``, filled at a shape's first sight.  A functional
    entry holds the shape's graph build and no plan: every later batch is
    rebound into that build and run once, resolving dependences
    dynamically.  A sim entry holds the
    :class:`~repro.compile.plan.CompiledPlan`'s memoised replay service
    time (docs/COMPILE.md).
    """

    def __init__(
        self,
        spec: BRNNSpec,
        *,
        config: Optional[ExecutionConfig] = None,
        params: Optional[BRNNParams] = None,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        cfg = config if config is not None else SERVE_DEFAULTS
        self.spec = spec
        self.config = cfg
        #: the substrate's name, or the executor instance the config holds
        self.executor = cfg.executor if cfg.executor is not None else "sim"
        self.metrics = cfg.metrics
        if is_simulated(cfg):
            self._executor = self.executor
            if not isinstance(self._executor, SimulatedExecutor):
                self._executor = SimulatedExecutor(
                    machine or xeon_8160_2s(), n_cores=cfg.n_workers, metrics=cfg.metrics
                )
            self.machine = self._executor.machine
            self.params = params  # weights are irrelevant to cost-only graphs
        else:
            self.machine = None
            self.params = (
                params if params is not None else BRNNParams.initialize(spec, 0)
            )
            # "threaded", "process" or an instance: all run functional graphs
            # through the same Executor protocol; everything below is shared.
            self._executor = resolve_executor(cfg)
        self.compile = cfg.compile
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(metrics=cfg.metrics) if cfg.compile == "on" else None
        )
        #: (service_time, trace) per batch shape of a sim engine that keeps
        #: no plan cache (one that does keeps them as cache-entry payloads)
        self._sim_memo: Dict[Tuple[int, int], Tuple[float, ExecutionTrace]] = {}

    @property
    def n_workers(self) -> int:
        return self._executor.n_workers

    def _build(self, key: Tuple[int, int], x: Optional[np.ndarray], out=None):
        """The inference graph of one batch shape (functional over ``x``,
        cost-only without it; ``x`` rebound into ``out``, the shape's held
        build, when given) and the threads planned for it."""
        padded_len, size = key
        inputs = (
            {"seq_len": padded_len, "batch": size}
            if x is None
            else {"x": x, "params": self.params}
        )
        grain = plan_granularity(
            self.spec, size, padded_len, False, self.n_workers, self._executor, self.config
        )
        build = build_brnn_graph(
            self.spec,
            training=False,
            mbs=grain.mbs,
            fused_input_projection=grain.hoisted,
            wavefront_tile=grain.tile,
            paired=grain.paired,
            out=out,
            **inputs,
        )
        return build, grain.threads

    # -- execution -------------------------------------------------------------

    def execute(self, batch: Batch) -> BatchExecution:
        """Run one batch; returns its service time and execution trace."""
        return self._serve((batch.padded_len, batch.size), batch)

    def warmup(self, shapes) -> int:
        """Fill the cache for ``(padded_len, batch_size)`` shapes: a build
        each (functional) or a compiled plan's service time (sim).

        The fleet calls this at start so steady-state traffic opens warm
        (docs/SERVING.md); returns the number of shapes actually cached
        (already-cached shapes are skipped without touching the hit/miss
        counters).  Requires ``ExecutionConfig(compile="on")``.
        """
        if self.plan_cache is None:
            raise RuntimeError(
                'warmup requires ExecutionConfig(compile="on") (docs/COMPILE.md)'
            )
        compiled = 0
        for padded_len, size in shapes:
            key = (int(padded_len), int(size))
            if key not in self.plan_cache:
                self._serve(key)
                compiled += 1
        return compiled

    def _serve(self, key, batch: Optional[Batch] = None) -> BatchExecution:
        """The one path from a batch shape to a result; without a ``batch``
        (warm-up) the shape runs on zeros and the cache is not asked.

        A warm functional shape rebinds the batch into its cached build
        (``build_brnn_graph(out=...)``) and runs it once; a warm simulated
        shape returns its memoised ``(service, trace)``.  Whatever is
        missing is made here: the build and, on the simulator of an engine
        that keeps a cache, the plan (compiled for the threads planned for
        the shape).
        """
        sim = isinstance(self._executor, SimulatedExecutor)
        if sim:
            x = None  # cost-only graphs
        elif batch is None:
            x = np.zeros((*key, self.spec.input_size), dtype=self.spec.dtype)
        else:
            x = batch.padded_input()
        t0 = time.perf_counter()
        entry = None
        if batch is not None and self.plan_cache is not None:
            entry = self.plan_cache.get(key)
        warm = entry is not None
        held = entry.payload if warm else self._sim_memo.get(key)
        if sim and held is not None:
            return BatchExecution(*held, warm=warm)
        build, threads = self._build(key, x, out=held)
        graph = build.graph
        plan = None
        if sim:
            if self.plan_cache is not None:
                plan = compile_graph(
                    graph, n_workers=threads, cost_model=self._executor.cost_model
                )
            # warm run: weights NUMA-homed / cache-resident, as in a steady
            # serving loop that reuses the same buffers batch after batch
            self._executor.run(graph, plan=plan)
            trace = self._executor.run(graph, plan=plan)
            # a replayed plan skips per-batch graph creation
            creation = 0.0 if plan is not None else len(graph) * self.machine.task_create_s
            held = (trace.makespan + creation + BATCH_FIXED_S, trace)
        else:
            trace = run_planned(self._executor, graph, threads)
            held = build
        if not warm:
            if self.plan_cache is not None:
                self.plan_cache.put(key, plan, payload=held)
            elif sim:
                self._sim_memo[key] = held
        if sim:
            return BatchExecution(*held, warm=warm)
        return BatchExecution(time.perf_counter() - t0, trace, build.logits(), warm)
