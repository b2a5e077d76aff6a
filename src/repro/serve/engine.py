"""The serving-side model executor.

An :class:`InferenceEngine` owns one compiled model (a
:class:`~repro.models.spec.BRNNSpec` plus parameters) and turns a cut
:class:`~repro.serve.batcher.Batch` into a barrier-free task graph
(:func:`~repro.core.graph_builder.build_brnn_graph`, inference mode) that
runs on one of two substrates:

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
    batch_fixed_s:
        Per-batch cost outside the task graph (input staging, graph
        creation bring-up) charged in ``sim`` mode — the quantity dynamic
        batching amortises; same convention as
        :func:`~repro.harness.simtime.simulated_batch_time`.
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

    With ``config.compile`` set to ``"on"`` or ``"auto"`` the engine keeps
    a :class:`~repro.compile.cache.PlanCache` keyed by ``(config
    fingerprint, batch shape)``: warm shapes skip graph construction *and*
    dynamic dependence resolution, replaying a compiled
    :class:`~repro.compile.plan.CompiledPlan` over the reused graph build
    (threaded) or returning the memoised compiled-replay service time
    (sim).  ``"auto"`` compiles a shape only once it recurs, so one-off
    shapes never pay compilation (docs/COMPILE.md).
    """

    def __init__(
        self,
        spec: BRNNSpec,
        *,
        config: Optional[ExecutionConfig] = None,
        params: Optional[BRNNParams] = None,
        machine: Optional[MachineSpec] = None,
        batch_fixed_s: float = 8e-3,
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
        self.batch_fixed_s = batch_fixed_s
        self.fused_input_projection = cfg.fused_input_projection
        self.metrics = cfg.metrics
        self.hooks = cfg.hooks
        if name == "sim":
            self.machine = machine or xeon_8160_2s()
            self._sim = SimulatedExecutor(
                self.machine,
                n_cores=cfg.n_workers,
                scheduler=cfg.scheduler,
                metrics=cfg.metrics,
                hooks=cfg.hooks,
            )
            self.params = params  # weights are irrelevant to cost-only graphs
            self._threaded = None
        else:
            self.machine = None
            self._sim = None
            self.params = (
                params if params is not None else BRNNParams.initialize(spec, cfg.seed)
            )
            # "threaded" or "process": both run functional graphs through
            # the same Executor protocol; everything below is shared.
            self._threaded = resolve_executor(cfg.replace(executor=name))
        self.validate_dependencies = validate_dependencies
        self.compile = cfg.compile
        #: the serving deployment this engine belongs to, if any; its
        #: fingerprint joins the plan-cache key so plans warmed under one
        #: ServeConfig never collide with another deployment's
        self.serve_config = serve_config
        if cfg.compile != "off":
            self.plan_cache: Optional[PlanCache] = PlanCache(metrics=cfg.metrics)
            self._config_fingerprint = cfg.fingerprint()
            if serve_config is not None:
                self._config_fingerprint += "+" + serve_config.fingerprint()
        else:
            self.plan_cache = None
            self._config_fingerprint = None
        #: sightings per batch shape — drives ``compile="auto"``'s
        #: compile-on-recurrence policy
        self._shape_seen: Dict[Tuple[int, int], int] = {}
        #: memoised (service_time, trace) per batch shape, sim mode only
        self._cost_cache: Dict[Tuple[int, int], Tuple[float, ExecutionTrace]] = {}
        #: memoised fused-vs-per-step critical-path comparison per shape
        self._cp_cache: Dict[Tuple[int, int], Dict[str, float]] = {}
        #: batch shapes whose graphs already passed the ordering audit
        self._validated_shapes: set = set()

    def _build(self, *, fused=None, **kwargs):
        """build_brnn_graph with this engine's fused-projection policy."""
        return build_brnn_graph(
            self.spec,
            training=False,
            fused_input_projection=self.fused_input_projection if fused is None else fused,
            proj_block=self.config.proj_block,
            fusion=self.config.fusion,
            wavefront_tile=self.config.wavefront_tile,
            **kwargs,
        )

    def critical_path_reduction(self, padded_len: int, size: int) -> Dict[str, float]:
        """Flop-weighted critical-path comparison, fused vs per-step.

        Built from cost-only graphs of the batch shape (cheap, memoised):
        the schedule-independent statement of what the hoisted projection
        buys — reported alongside latency SLOs in :class:`ServerStats`.
        """
        key = (padded_len, size)
        cached = self._cp_cache.get(key)
        if cached is None:
            mbs = self._effective_mbs(size)
            weight = lambda t: t.flops
            per_step = self._build(
                seq_len=padded_len, batch=size, mbs=mbs, fused="off"
            ).graph.critical_path_length(weight)
            fused = self._build(
                seq_len=padded_len, batch=size, mbs=mbs
            ).graph.critical_path_length(weight)
            cached = {
                "per_step_flops": per_step,
                "fused_flops": fused,
                "reduction": 1.0 - fused / per_step if per_step > 0 else 0.0,
            }
            self._cp_cache[key] = cached
        return cached

    def critical_path_report(self) -> Dict[str, Dict[str, float]]:
        """Every batch shape executed so far, keyed ``"<padded_len>x<size>"``."""
        return {f"{t}x{b}": dict(v) for (t, b), v in sorted(self._cp_cache.items())}

    @property
    def n_workers(self) -> int:
        ex = self._sim if self.executor == "sim" else self._threaded
        return ex.n_workers

    def _effective_mbs(self, batch_size: int) -> int:
        return max(1, min(self.mbs, batch_size))

    def _validate_shape(self, graph, padded_len: int, size: int) -> None:
        """Ordering-audit ``graph`` once per batch shape; raise on races."""
        key = (padded_len, size)
        if key in self._validated_shapes:
            return
        from repro.runtime.racecheck import (
            RaceError,
            RaceReport,
            ordering_findings,
        )

        findings, pairs = ordering_findings(graph)
        if findings:
            raise RaceError(
                RaceReport(
                    findings=findings,
                    n_tasks=len(graph),
                    checked_pairs=pairs,
                )
            )
        self._validated_shapes.add(key)

    # -- execution -------------------------------------------------------------

    def execute(self, batch: Batch) -> BatchExecution:
        """Run one batch; returns its service time and execution trace."""
        if self.executor == "sim":
            return self._execute_simulated(batch)
        return self._execute_threaded(batch)

    def _plan_key(self, key: Tuple[int, int]) -> Tuple[str, Tuple[int, int]]:
        return (self._config_fingerprint, key)

    def _should_compile(self, key: Tuple[int, int]) -> bool:
        """``"on"`` compiles at first sight; ``"auto"`` once a shape recurs."""
        return self.compile == "on" or self._shape_seen.get(key, 0) >= 1

    def _compile_sim_shape(self, key: Tuple[int, int]) -> Tuple[float, ExecutionTrace]:
        """Compile + cache the plan for one sim batch shape; returns its payload."""
        padded_len, size = key
        graph = self._build(
            seq_len=padded_len, batch=size, mbs=self._effective_mbs(size)
        ).graph
        if self.validate_dependencies:
            self._validate_shape(graph, padded_len, size)
        plan = compile_graph(
            graph,
            n_workers=self._sim.n_cores,
            cost_model=self._sim.cost_model,
            key=[self._config_fingerprint, list(key)],
        )
        self._sim.run(graph, plan=plan)  # warm run (see dynamic path)
        trace = self._sim.run(graph, plan=plan)
        # replay skips per-batch graph creation, so no creation charge
        service = trace.makespan + self.batch_fixed_s
        self.plan_cache.put(self._plan_key(key), plan, payload=(service, trace))
        return service, trace

    def _compile_threaded_shape(self, key: Tuple[int, int], x: np.ndarray):
        """Compile + cache the plan for one functional batch shape.

        Returns the graph build (whose chunk buffers warm hits rebind) and
        the trace of the first plan-driven run.
        """
        result = self._build(
            x=x, params=self.params, mbs=self._effective_mbs(key[1])
        )
        if self.validate_dependencies:
            self._validate_shape(result.graph, key[0], key[1])
        plan = compile_graph(
            result.graph,
            n_workers=self._threaded.n_workers,
            key=[self._config_fingerprint, list(key)],
        )
        trace = self._threaded.run(result.graph, plan=plan)
        self.plan_cache.put(self._plan_key(key), plan, payload=result)
        return result, trace

    def warmup(self, shapes) -> int:
        """Pre-compile plans for ``(padded_len, batch_size)`` shapes.

        The fleet calls this at start so steady-state traffic opens on
        warm plans (docs/SERVING.md); returns the number of shapes
        actually compiled (already-cached shapes are skipped without
        touching the hit/miss counters).  Warmed shapes count as seen, so
        ``compile="auto"`` replays them from the first real batch.
        Requires ``ExecutionConfig(compile="on"|"auto")``.
        """
        if self.plan_cache is None:
            raise RuntimeError(
                'warmup requires ExecutionConfig(compile="on" or "auto") '
                "(docs/COMPILE.md)"
            )
        compiled = 0
        for padded_len, size in shapes:
            key = (int(padded_len), int(size))
            self._shape_seen[key] = max(self._shape_seen.get(key, 0), 1)
            if self._plan_key(key) in self.plan_cache:
                continue
            if self.executor == "sim":
                self._compile_sim_shape(key)
            else:
                x = np.zeros(
                    (key[0], key[1], self.spec.input_size), dtype=self.spec.dtype
                )
                self._compile_threaded_shape(key, x)
            compiled += 1
        return compiled

    def _execute_simulated(self, batch: Batch) -> BatchExecution:
        key = (batch.padded_len, batch.size)
        self.critical_path_reduction(batch.padded_len, batch.size)
        if self.plan_cache is not None:
            return self._execute_simulated_compiled(batch, key)
        cached = self._cost_cache.get(key)
        if cached is None:
            graph = self._build(
                seq_len=batch.padded_len,
                batch=batch.size,
                mbs=self._effective_mbs(batch.size),
            ).graph
            if self.validate_dependencies:
                self._validate_shape(graph, batch.padded_len, batch.size)
            # warm run: weights NUMA-homed / cache-resident, as in a steady
            # serving loop that reuses the same buffers batch after batch
            self._sim.run(graph)
            trace = self._sim.run(graph)
            creation = len(graph) * self.machine.task_create_s
            service = trace.makespan + creation + self.batch_fixed_s
            cached = (service, trace)
            self._cost_cache[key] = cached
        return BatchExecution(service_time_s=cached[0], trace=cached[1])

    def _execute_simulated_compiled(
        self, batch: Batch, key: Tuple[int, int]
    ) -> BatchExecution:
        """Sim substrate with a plan cache in place of the cost memo.

        A warm shape returns its memoised compiled-replay ``(service,
        trace)`` payload, so the cache's hit counters track exactly the
        batches that skipped graph build + dependence resolution.
        """
        entry = self.plan_cache.get(self._plan_key(key))
        if entry is not None:
            service, trace = entry.payload
            return BatchExecution(service_time_s=service, trace=trace, warm=True)
        compile_now = self._should_compile(key)
        self._shape_seen[key] = self._shape_seen.get(key, 0) + 1
        if compile_now:
            service, trace = self._compile_sim_shape(key)
            return BatchExecution(service_time_s=service, trace=trace)
        # auto-mode first sighting: dynamic, uncached (one-off shapes
        # never pay compilation — a recurrence triggers it next time)
        graph = self._build(
            seq_len=batch.padded_len,
            batch=batch.size,
            mbs=self._effective_mbs(batch.size),
        ).graph
        if self.validate_dependencies:
            self._validate_shape(graph, batch.padded_len, batch.size)
        self._sim.run(graph)
        trace = self._sim.run(graph)
        creation = len(graph) * self.machine.task_create_s
        service = trace.makespan + creation + self.batch_fixed_s
        return BatchExecution(service_time_s=service, trace=trace)

    def _execute_threaded(self, batch: Batch) -> BatchExecution:
        x = batch.padded_input()
        self.critical_path_reduction(batch.padded_len, batch.size)
        if self.plan_cache is not None:
            return self._execute_threaded_compiled(batch, x)
        t0 = time.perf_counter()
        result = self._build(
            x=x,
            params=self.params,
            mbs=self._effective_mbs(batch.size),
        )
        if self.validate_dependencies:
            self._validate_shape(result.graph, batch.padded_len, batch.size)
        trace = self._threaded.run(result.graph)
        service = time.perf_counter() - t0
        return BatchExecution(
            service_time_s=service, trace=trace, logits=result.logits()
        )

    def _execute_threaded_compiled(self, batch: Batch, x: np.ndarray) -> BatchExecution:
        """Threaded substrate with plan replay over a reused graph build.

        Warm shapes copy the new batch's data into the cached build's
        chunk buffers (the task closures read through them) and replay the
        compiled plan — no graph construction, no dependence re-resolution.
        Inference graphs rebind their h/c/logits slots every run, so a
        reused build recomputes from the fresh inputs.
        """
        key = (batch.padded_len, batch.size)
        t0 = time.perf_counter()
        entry = self.plan_cache.get(self._plan_key(key))
        if entry is not None:
            build = entry.payload
            mbs_eff = self._effective_mbs(batch.size)
            for state, xc in zip(build.chunks, split_batch(x, mbs_eff, axis=1)):
                np.copyto(state.x, xc)
            trace = self._threaded.run(build.graph, plan=entry.plan)
            service = time.perf_counter() - t0
            return BatchExecution(
                service_time_s=service, trace=trace, logits=build.logits(),
                warm=True,
            )
        compile_now = self._should_compile(key)
        self._shape_seen[key] = self._shape_seen.get(key, 0) + 1
        if compile_now:
            result, trace = self._compile_threaded_shape(key, x)
        else:
            result = self._build(
                x=x,
                params=self.params,
                mbs=self._effective_mbs(batch.size),
            )
            if self.validate_dependencies:
                self._validate_shape(result.graph, batch.padded_len, batch.size)
            trace = self._threaded.run(result.graph)
        service = time.perf_counter() - t0
        return BatchExecution(
            service_time_s=service, trace=trace, logits=result.logits()
        )
