"""Executors that actually run task payloads.

:class:`SerialExecutor` runs the graph in registration order on one core —
the reference schedule used in correctness tests.

:class:`ThreadedExecutor` is the real-concurrency engine: ``n_workers``
threads pull from a shared scheduler under a lock.  RNN-cell payloads are
GEMM-dominated NumPy calls that release the GIL, so tasks overlap for real
on a multi-core host — when the GEMMs are large enough to matter:
:func:`useful_workers` starts the threads only for graphs whose GEMM work
can feed them and runs every other graph on the calling thread.  Dataflow
determinism holds regardless of interleaving: a task only ever reads
regions whose writers completed, so results are bitwise identical to the
serial schedule.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Callable, Optional

from repro.obs.hooks import ProfilingHooks
from repro.obs.publish import publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.scheduler import (
    LocalityAwareScheduler,
    ReplayScheduler,
    Scheduler,
    resolve_scheduler,
)
from repro.runtime.task import Task
from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.simarch.costmodel import GEMM_KINDS

SchedulerFactory = Callable[[int], Scheduler]


#: minimum fraction of the successor's working set that must overlap the
#: completed task's data for an affinity hint to be worth issuing — pinning
#: a multi-megabyte cell task to a core because it consumes one small
#: activation would collapse independent chains onto one core.
HINT_MIN_SHARED_FRACTION = 0.25

#: mean GEMM flops per task under which a second thread costs more than it
#: overlaps.  A GEMM is the only stretch of a payload that runs without the
#: GIL; below the floor the workers spend the run handing the GIL to each
#: other at every NumPy call.  Set from the sweep in docs/PERF.md.
MIN_GEMM_FLOPS_PER_TASK = 1e7


def gemm_flops_per_task(graph: TaskGraph) -> float:
    """Mean annotated GEMM flops per task: the work a second thread could overlap."""
    gemm = sum(t.flops for t in graph.tasks if t.kind in GEMM_KINDS)
    return gemm / max(1, len(graph.tasks))


def useful_workers(graph: TaskGraph, n_workers: int) -> int:
    """Threads worth starting for ``graph``: ``n_workers``, or 1 when its
    tasks' GEMM flops average under :data:`MIN_GEMM_FLOPS_PER_TASK`."""
    if n_workers > 1 and gemm_flops_per_task(graph) >= MIN_GEMM_FLOPS_PER_TASK:
        return n_workers
    return 1


def locality_hint(completed: Task, successor: Task, core: int) -> Optional[int]:
    """Core hint for a successor that became ready when ``completed`` finished.

    Implements the paper's locality mechanism: run the successor on the
    same core as its predecessor when a *substantial* part of the
    successor's working set (e.g. the layer's weights, not just one small
    activation) was touched by the predecessor.
    """
    if not successor.shares_data_with(completed):
        return None
    ws = min(successor.working_set_bytes(), completed.working_set_bytes())
    if ws <= 0:
        return core
    completed_ids = completed.region_ids()
    shared = sum(r.nbytes for r in successor.regions() if id(r) in completed_ids)
    return core if shared >= HINT_MIN_SHARED_FRACTION * ws else None


def _record(task: Task, core: int, start: float, end: float) -> TaskRecord:
    return TaskRecord(task.tid, task.name, task.kind, core, start, end, task.flops)


def _fill_working_sets(trace: ExecutionTrace, graph: TaskGraph) -> None:
    """Every record's ``wss_bytes``, in one pass after the run: not a sum
    between two payloads, and not inside the workers' critical section."""
    tasks = graph.tasks
    for r in trace.records:
        r.wss_bytes = tasks[r.tid].working_set_bytes()


class SerialExecutor:
    """Run tasks one by one in registration (topological) order."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
    ) -> None:
        self.n_workers = 1
        self.metrics = metrics
        self.hooks = hooks

    def run(self, graph: TaskGraph) -> ExecutionTrace:
        trace = ExecutionTrace(n_cores=1, scheduler="serial")
        hooks = self.hooks
        now = 0.0
        for task in graph:
            if hooks is not None:
                hooks.on_task_start(task, 0, now)
            t0 = time.perf_counter()
            task.run()
            dur = time.perf_counter() - t0
            trace.records.append(_record(task, 0, now, now + dur))
            now += dur
            if hooks is not None:
                hooks.on_task_end(task, 0, now)
        _fill_working_sets(trace, graph)
        publish_run(self.metrics, trace)
        return trace


class ThreadedExecutor:
    """Pool of worker threads draining a dependence-aware ready queue.

    ``scheduler_factory`` may be a factory callable, a policy name
    (``"fifo"``/``"fuzz:7"``/…), or a ready :class:`Scheduler` instance —
    the latter lets the race-checking harness inject a primed
    ``RecordingScheduler``/``ReplayScheduler`` (single-use: pass a fresh
    instance per ``run``).
    """

    def __init__(
        self,
        n_workers: int,
        scheduler_factory: SchedulerFactory = LocalityAwareScheduler,
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._scheduler_factory = scheduler_factory
        self.metrics = metrics
        self.hooks = hooks

    def run(self, graph: TaskGraph, plan=None) -> ExecutionTrace:
        """Execute ``graph`` on :func:`useful_workers` threads; with ``plan``
        (a compiled :class:`~repro.compile.plan.CompiledPlan`) replay its
        static release order over the transitive-reduced edge set instead
        of resolving dependences dynamically — fewer indegree decrements
        per completion and no locality-hint computation per wake-up."""
        n_threads = useful_workers(graph, self.n_workers)
        if plan is not None:
            plan.validate(graph)
            record = plan.to_schedule_record(copy=False)
            scheduler = ReplayScheduler(record, self.n_workers)
            successors, indegree = plan.successors, plan.indegree()
        else:
            scheduler = resolve_scheduler(self._scheduler_factory, self.n_workers)
            successors, indegree = graph.successors, list(graph.indegree)
        scheduler.hooks = self.hooks
        trace = ExecutionTrace(
            n_cores=n_threads, scheduler=getattr(scheduler, "name", "?")
        )
        if n_threads > 1 or plan is None:
            # Roots are identical under transitive reduction (a redundant
            # edge into t implies another retained path into t).
            for tid, deg in enumerate(indegree):
                if deg == 0:
                    scheduler.push(graph.tasks[tid])
        if n_threads > 1:
            hinted = plan is None
            self._run_threaded(graph, scheduler, successors, indegree, hinted, trace)
        elif plan is None:
            ready = iter(partial(scheduler.pop, 0), None)
            self._run_inline(graph, ready, scheduler.push, successors, indegree, trace)
        else:  # plan.order is what ReplayScheduler yields on one worker
            ready = map(graph.tasks.__getitem__, plan.order)
            self._run_inline(graph, ready, None, successors, indegree, trace)
        unexecuted = len(graph.tasks) - len(trace.records)
        if unexecuted:  # a scheduler that stopped yielding ready tasks
            raise RuntimeError(f"executor finished with {unexecuted} unexecuted tasks")
        _fill_working_sets(trace, graph)
        trace.scheduler_counters = scheduler.counters
        publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
        return trace

    def _run_inline(self, graph, ready, push, successors, indegree, trace):
        """The one-thread case: no thread, lock, condition or hint.  ``ready``
        yields the release order (the scheduler's pops, or a plan's static
        order) and ``push`` takes each task whose last predecessor finished;
        a payload or scheduler exception propagates as it is."""
        hooks = self.hooks
        tasks = graph.tasks
        records = trace.records
        epoch = time.perf_counter()
        for task in ready:
            if indegree[task.tid] != 0:
                raise ValueError(
                    f"task {task.name!r} released twice or before its predecessors"
                )
            indegree[task.tid] = -1
            start = time.perf_counter() - epoch
            if hooks is not None:
                hooks.on_task_start(task, 0, start)
            task.run()
            end = time.perf_counter() - epoch
            if hooks is not None:
                hooks.on_task_end(task, 0, end)
            records.append(_record(task, 0, start, end))
            for succ_tid in successors[task.tid]:
                indegree[succ_tid] -= 1
                if indegree[succ_tid] == 0 and push is not None:
                    push(tasks[succ_tid])

    def _run_threaded(self, graph, scheduler, successors, indegree, hinted, trace):
        hooks = self.hooks
        tasks = graph.tasks
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        remaining = len(tasks)
        errors: list = []
        epoch = time.perf_counter()

        def worker(core: int) -> None:
            nonlocal remaining
            while True:
                with lock:
                    while True:
                        if remaining == 0 or errors:
                            work_available.notify_all()
                            return
                        try:
                            task = scheduler.pop(core)
                        except BaseException as exc:  # e.g. replay mismatch
                            errors.append(exc)
                            work_available.notify_all()
                            return
                        if task is not None:
                            break
                        work_available.wait()
                start = time.perf_counter() - epoch
                if hooks is not None:
                    hooks.on_task_start(task, core, start)
                try:
                    task.run()
                except BaseException as exc:  # surface payload failures
                    with lock:
                        errors.append(exc)
                        work_available.notify_all()
                    return
                end = time.perf_counter() - epoch
                if hooks is not None:
                    hooks.on_task_end(task, core, end)
                record = _record(task, core, start, end)
                # A successor waiting for this task alone is freed by it whatever
                # the other workers do: place it before taking the lock.  (One
                # whose other predecessor ends meanwhile is placed under it.)
                hints = {
                    succ_tid: locality_hint(task, tasks[succ_tid], core)
                    for succ_tid in (successors[task.tid] if hinted else ())
                    if indegree[succ_tid] == 1
                }
                with lock:
                    trace.records.append(record)
                    remaining -= 1
                    woke = False
                    for succ_tid in successors[task.tid]:
                        indegree[succ_tid] -= 1
                        if indegree[succ_tid] == 0:
                            succ = tasks[succ_tid]
                            if hinted and succ_tid not in hints:
                                hints[succ_tid] = locality_hint(task, succ, core)
                            scheduler.push(succ, hint=hints.get(succ_tid))
                            woke = True
                    if remaining == 0:
                        work_available.notify_all()
                    elif woke:
                        work_available.notify(len(scheduler))

        threads = [
            threading.Thread(target=worker, args=(c,), daemon=True)
            for c in range(trace.n_cores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
