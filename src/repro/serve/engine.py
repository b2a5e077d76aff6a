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
  ``threaded``, including compiled-plan replay for warm shapes — the
  engine code below is substrate-blind between the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compile import PlanCache, compile_graph
from repro.config import ExecutionConfig
from repro.core.bpar import resolve_executor
from repro.core.graph_builder import build_brnn_graph, split_batch
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime import racecheck
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.trace import ExecutionTrace
from repro.serve.batcher import Batch
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import xeon_8160_2s

EXECUTORS = ("sim", "threaded", "process")

#: the config an engine built without ``config=`` runs under: deterministic
#: simulated substrate, every layer hoisted (in the cost model the critical
#: path shrinks for every layer shape)
SERVE_DEFAULTS = ExecutionConfig(executor="sim", fused_input_projection="on")

#: per-batch cost outside the task graph (input staging, graph-creation
#: bring-up) charged in ``sim`` mode, the quantity dynamic batching
#: amortises; same convention and value as
#: :func:`~repro.harness.simtime.simulated_batch_time`
BATCH_FIXED_S = 8e-3


@dataclass
class BatchExecution:
    """Outcome of executing one batch."""

    service_time_s: float
    trace: ExecutionTrace
    logits: Optional[np.ndarray] = None
    #: served by replaying a warm compiled plan (plan-cache hit)
    warm: bool = False


class InferenceEngine:
    """Executes batches of a fixed model on a fixed substrate.

    Parameters
    ----------
    spec:
        The served model architecture.
    config:
        An :class:`~repro.config.ExecutionConfig` naming the substrate,
        worker count, scheduler, ``mbs``, fusion policy, seed, and the
        observability attachments (``metrics``/``hooks``).  ``executor``
        is ``"sim"`` (deterministic simulated machine, the default),
        ``"threaded"`` (real worker threads, real numerics) or
        ``"process"`` (pinned worker processes over shared memory, real
        numerics past the GIL); ``n_workers`` is the simulated core count
        under ``sim`` (default: the whole machine).  Larger batches need
        ``mbs>1`` to spread across the simulated 48 cores.
        ``fused_input_projection="auto"`` means the same on every
        substrate: the layers where hoisting pays on a real host (see
        :func:`~repro.core.graph_builder.resolve_fused_layers`).
    validate_dependencies:
        Audit every *new* batch shape's graph with the race checker's
        ordering pass (:func:`repro.runtime.racecheck.ordering_findings`)
        before serving it, raising :class:`~repro.runtime.racecheck.RaceError`
        on any unordered conflicting task pair.  One audit per shape
        (memoised), so steady-state serving pays nothing; intended for
        CI and staging, not hot production paths.
    serve_config:
        The :class:`~repro.serve.config.ServeConfig` of the deployment
        this engine serves in, if any.  Its fingerprint joins the
        plan-cache key, so warmed plans are scoped to the deployment
        (replica pools set this; standalone engines may leave it unset).

    With ``config.compile="on"`` the engine keeps a
    :class:`~repro.compile.cache.PlanCache` keyed by ``(config
    fingerprint, batch shape)``: a shape is compiled at first sight and
    every later batch of it skips graph construction *and* dynamic
    dependence resolution, replaying the
    :class:`~repro.compile.plan.CompiledPlan` over the reused graph build
    (functional) or returning the memoised compiled-replay service time
    (sim) (docs/COMPILE.md).
    """

    def __init__(
        self,
        spec: BRNNSpec,
        *,
        config: Optional[ExecutionConfig] = None,
        params: Optional[BRNNParams] = None,
        machine: Optional[MachineSpec] = None,
        validate_dependencies: bool = False,
        serve_config=None,
    ) -> None:
        cfg = config if config is not None else SERVE_DEFAULTS
        name = cfg.executor if cfg.executor is not None else "sim"
        if name not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {name!r}")
        self.spec = spec
        self.config = cfg
        self.executor = name
        self.mbs = cfg.mbs
        self.fused_input_projection = cfg.fused_input_projection
        self.metrics = cfg.metrics
        self.hooks = cfg.hooks
        if name == "sim":
            self.machine = machine or xeon_8160_2s()
            self._executor = SimulatedExecutor(
                self.machine,
                n_cores=cfg.n_workers,
                scheduler=cfg.scheduler,
                metrics=cfg.metrics,
                hooks=cfg.hooks,
            )
            self.params = params  # weights are irrelevant to cost-only graphs
        else:
            self.machine = None
            self.params = (
                params if params is not None else BRNNParams.initialize(spec, cfg.seed)
            )
            # "threaded" or "process": both run functional graphs through
            # the same Executor protocol; everything below is shared.
            self._executor = resolve_executor(cfg.replace(executor=name))
        self.validate_dependencies = validate_dependencies
        self.compile = cfg.compile
        #: the serving deployment this engine belongs to, if any; its
        #: fingerprint joins the plan-cache key so plans warmed under one
        #: ServeConfig never collide with another deployment's
        self.serve_config = serve_config
        if cfg.compile == "on":
            self.plan_cache: Optional[PlanCache] = PlanCache(metrics=cfg.metrics)
            self._config_fingerprint = cfg.fingerprint()
            if serve_config is not None:
                self._config_fingerprint += "+" + serve_config.fingerprint()
        else:
            self.plan_cache = None
            self._config_fingerprint = None
        #: (service_time, trace) per batch shape of a sim engine that keeps
        #: no plan cache (one that does keeps them as cache-entry payloads)
        self._sim_memo: Dict[Tuple[int, int], Tuple[float, ExecutionTrace]] = {}
        #: batch shapes whose graphs already passed the ordering audit
        self._validated_shapes: set = set()

    @property
    def n_workers(self) -> int:
        return self._executor.n_workers

    def _effective_mbs(self, batch_size: int) -> int:
        return max(1, min(self.mbs, batch_size))

    def _plan_key(self, key: Tuple[int, int]) -> Tuple[str, Tuple[int, int]]:
        return (self._config_fingerprint, key)

    def _build(self, key: Tuple[int, int], x: Optional[np.ndarray]):
        """The inference graph of one batch shape: functional over ``x``,
        cost-only without it; audited once per shape when asked to."""
        padded_len, size = key
        inputs = (
            {"seq_len": padded_len, "batch": size}
            if x is None
            else {"x": x, "params": self.params}
        )
        result = build_brnn_graph(
            self.spec,
            training=False,
            mbs=self._effective_mbs(size),
            fused_input_projection=self.fused_input_projection,
            proj_block=self.config.proj_block,
            fusion=self.config.fusion,
            wavefront_tile=self.config.wavefront_tile,
            **inputs,
        )
        if self.validate_dependencies and key not in self._validated_shapes:
            findings, pairs = racecheck.ordering_findings(result.graph)
            if findings:
                raise racecheck.RaceError(
                    racecheck.RaceReport(
                        findings=findings,
                        n_tasks=len(result.graph),
                        checked_pairs=pairs,
                    )
                )
            self._validated_shapes.add(key)
        return result

    # -- execution -------------------------------------------------------------

    def execute(self, batch: Batch) -> BatchExecution:
        """Run one batch; returns its service time and execution trace."""
        return self._serve((batch.padded_len, batch.size), batch)

    def warmup(self, shapes) -> int:
        """Pre-compile plans for ``(padded_len, batch_size)`` shapes.

        The fleet calls this at start so steady-state traffic opens on
        warm plans (docs/SERVING.md); returns the number of shapes
        actually compiled (already-cached shapes are skipped without
        touching the hit/miss counters).  Requires
        ``ExecutionConfig(compile="on")``.
        """
        if self.plan_cache is None:
            raise RuntimeError(
                'warmup requires ExecutionConfig(compile="on") (docs/COMPILE.md)'
            )
        compiled = 0
        for padded_len, size in shapes:
            key = (int(padded_len), int(size))
            if self._plan_key(key) not in self.plan_cache:
                self._serve(key)
                compiled += 1
        return compiled

    def _serve(self, key, batch: Optional[Batch] = None) -> BatchExecution:
        """The one path from a batch shape to a result; without a ``batch``
        (warm-up) the shape runs on zeros and the cache is not asked.

        A warm functional shape copies the batch into its cached build's
        chunk buffers (the task closures read through them, and inference
        graphs rebind their h/c/logits slots every run) and replays the
        plan; a warm simulated shape returns its memoised ``(service,
        trace)``.  Whatever is missing is made here: the build, the plan
        (compiled and cached when the engine keeps a cache) and, for an
        entry restored by :meth:`PlanCache.load`, the payload around its
        stored plan.
        """
        sim = self.executor == "sim"
        if sim:
            x = None  # cost-only graphs
        elif batch is None:
            x = np.zeros((*key, self.spec.input_size), dtype=self.spec.dtype)
        else:
            x = batch.padded_input()
        t0 = time.perf_counter()
        entry = None
        if batch is not None and self.plan_cache is not None:
            entry = self.plan_cache.get(self._plan_key(key))
        warm = entry is not None
        plan = entry.plan if warm else None
        held = entry.payload if warm else self._sim_memo.get(key)
        if sim and held is not None:
            return BatchExecution(*held, warm=warm)
        if held is None:
            build = self._build(key, x)
        else:
            build = held
            chunks = split_batch(x, self._effective_mbs(key[1]), axis=1)
            for state, xc in zip(build.chunks, chunks):
                np.copyto(state.x, xc)
        graph = build.graph
        if plan is None and self.plan_cache is not None:
            plan = compile_graph(
                graph,
                n_workers=self.n_workers,
                cost_model=self._executor.cost_model if sim else None,
                key=[self._config_fingerprint, list(key)],
            )
        if sim:
            # warm run: weights NUMA-homed / cache-resident, as in a steady
            # serving loop that reuses the same buffers batch after batch
            self._executor.run(graph, plan=plan)
            trace = self._executor.run(graph, plan=plan)
            # a replayed plan skips per-batch graph creation
            creation = 0.0 if plan is not None else len(graph) * self.machine.task_create_s
            held = (trace.makespan + creation + BATCH_FIXED_S, trace)
        else:
            trace = self._executor.run(graph, plan=plan)
            held = build
        if warm:
            entry.payload = held
        elif self.plan_cache is not None:
            self.plan_cache.put(self._plan_key(key), plan, payload=held)
        elif sim:
            self._sim_memo[key] = held
        if sim:
            return BatchExecution(*held, warm=warm)
        return BatchExecution(time.perf_counter() - t0, trace, build.logits(), warm)
