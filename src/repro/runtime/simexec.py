"""Deterministic discrete-event executor over a simulated machine.

Runs a :class:`~repro.runtime.depgraph.TaskGraph` against a
:class:`~repro.simarch.machine.MachineSpec`: each dispatched task is
charged a duration by the :class:`~repro.simarch.costmodel.CostModel`
(consulting the cache model's current residency), and completions wake up
successors exactly as on the threaded executor.  Everything is ordered by
``(time, sequence-number)``, so the simulation is bit-reproducible.

With ``execute_payloads=True`` the numerics actually run in dependence
order ("functional simulation"), letting tests assert that simulated
schedules compute the same results as the serial oracle.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from repro.obs.publish import publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import locality_hint
from repro.runtime.scheduler import resolve_scheduler, start_release
from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.simarch.cache import CacheModel
from repro.simarch.costmodel import CostModel
from repro.simarch.machine import MachineSpec, usable_cores


class SimulatedExecutor:
    """Discrete-event simulation of task-graph execution.

    Parameters
    ----------
    machine:
        The modelled platform.
    n_cores:
        Use only the first ``n_cores`` cores (paper methodology: runs with
        ≤ 24 cores stay on one socket).  Defaults to all cores.
    scheduler:
        Ready-queue policy name — ``"locality"`` (B-Par default),
        ``"fifo"`` (locality-oblivious) or ``"fuzz:SEED"`` (schedule
        fuzzing) — or a primed ``Scheduler`` instance (e.g. a
        ``RecordingScheduler``/``ReplayScheduler`` from the race-checking
        harness; single-use: pass a fresh instance per ``run``).  An
        unknown name raises ``ValueError`` at construction.
    execute_payloads:
        Run task payload functions in dependence order while simulating.
    persistent_cache:
        Keep cache residency across successive :meth:`run` calls (models
        back-to-back batches of a training loop).
    """

    def __init__(
        self,
        machine: MachineSpec,
        n_cores: Optional[int] = None,
        scheduler="locality",
        execute_payloads: bool = False,
        persistent_cache: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.machine = machine
        self.n_cores = n_cores if n_cores is not None else machine.n_cores
        usable_cores(machine, self.n_cores)  # validate
        resolve_scheduler(scheduler, self.n_cores)  # an unknown name raises here
        self.scheduler = scheduler
        self.cost_model = CostModel(machine)
        self.execute_payloads = execute_payloads
        self.persistent_cache = persistent_cache
        self.metrics = metrics
        cps = machine.cores_per_socket
        self._active_sockets = (self.n_cores + cps - 1) // cps
        self._cache = CacheModel(machine, self._active_sockets)

    # visible alias so engines can report worker counts uniformly
    @property
    def n_workers(self) -> int:
        return self.n_cores

    def run(self, graph: TaskGraph, plan=None) -> ExecutionTrace:
        """Simulate ``graph``; with ``plan`` (a compiled
        :class:`~repro.compile.plan.CompiledPlan`) replay its static
        release order over the transitive-reduced edge set instead of a
        dynamic ready-queue policy.  This is the one executor that replays
        plans: the serving engine's ``sim`` substrate and the plan audit
        (:func:`repro.runtime.racecheck.replay_plan`) run them here."""
        if not self.persistent_cache:
            self._cache = CacheModel(self.machine, self._active_sockets)
        cache = self._cache
        scheduler, successors, indegree = start_release(
            graph, self.scheduler, self.n_cores, plan
        )
        replay = plan is not None
        trace = ExecutionTrace(n_cores=self.n_cores, scheduler=scheduler.name)

        remaining = len(graph.tasks)
        idle: Set[int] = set(range(self.n_cores))
        active_on_socket = [0] * self.machine.n_sockets
        # completion events: (time, seq, tid, core)
        events: List[Tuple[float, int, int, int]] = []
        seq = 0
        now = 0.0

        affinity = getattr(scheduler, "_affinity", None)
        # Core enumeration interleaved across sockets: un-hinted work spreads
        # over both sockets (balancing bandwidth), exactly as an idle-core
        # wake-up order would on the real machine.  The rotating start makes
        # an oblivious scheduler scatter consecutive chain tasks across
        # cores, while affinity hints pin chains regardless of rotation.
        core_seq = sorted(
            range(self.n_cores), key=lambda c: (c % self.machine.cores_per_socket, c)
        )
        seq_pos = {c: i for i, c in enumerate(core_seq)}
        rr = 0

        def dispatch() -> None:
            nonlocal seq, rr
            n = self.n_cores
            while scheduler and idle:
                # Serve cores that have hinted (affinity) work first so a
                # neighbour does not steal a task away from its data.
                if affinity is not None:
                    with_local = sorted(c for c in idle if affinity[c])
                    local_set = set(with_local)
                    rest = [
                        c
                        for c in (core_seq[(rr + i) % n] for i in range(n))
                        if c in idle and c not in local_set
                    ]
                    order = with_local + rest
                else:
                    order = [
                        c
                        for c in (core_seq[(rr + i) % n] for i in range(n))
                        if c in idle
                    ]
                dispatched = False
                for core in order:
                    task = scheduler.pop(core)
                    if task is None:
                        break
                    idle.discard(core)
                    socket = self.machine.socket_of(core)
                    active_on_socket[socket] += 1
                    cost = self.cost_model.cost(
                        task, core, cache, active_on_socket[socket]
                    )
                    if self.execute_payloads:
                        task.run()
                    trace.records.append(
                        TaskRecord(
                            tid=task.tid,
                            name=task.name,
                            kind=task.kind,
                            core=core,
                            start=now,
                            end=now + cost.duration,
                            flops=task.flops,
                            wss_bytes=task.working_set_bytes(),
                            instructions=cost.instructions,
                            l3_miss_bytes=cost.access.miss_bytes,
                            remote_miss_bytes=cost.access.remote_mem_bytes,
                            overhead=cost.overhead,
                        )
                    )
                    heapq.heappush(events, (now + cost.duration, seq, task.tid, core))
                    seq += 1
                    rr = (seq_pos[core] + 1) % n
                    dispatched = True
                if not dispatched:
                    break

        dispatch()
        while events:
            now, _, tid, core = heapq.heappop(events)
            # Drain every completion at this timestamp before dispatching so
            # scheduling decisions see the full ready set (deterministic).
            completed = [(tid, core)]
            while events and events[0][0] == now:
                _, _, tid2, core2 = heapq.heappop(events)
                completed.append((tid2, core2))
            for tid2, core2 in completed:
                task = graph.tasks[tid2]
                idle.add(core2)
                active_on_socket[self.machine.socket_of(core2)] -= 1
                remaining -= 1
                for succ_tid in successors[tid2]:
                    indegree[succ_tid] -= 1
                    if indegree[succ_tid] == 0:
                        succ = graph.tasks[succ_tid]
                        hint = None if replay else locality_hint(task, succ, core2)
                        scheduler.push(succ, hint=hint)
            dispatch()

        if remaining != 0:  # the scheduler starved: nothing ran to push more
            raise RuntimeError(f"simulation finished with {remaining} unexecuted tasks")
        trace.machine = self.machine  # type: ignore[attr-defined]
        trace.cache_stats = cache.stats  # type: ignore[attr-defined]
        trace.scheduler_counters = scheduler.counters
        publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
        return trace
