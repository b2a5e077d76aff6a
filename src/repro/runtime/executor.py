"""Executors that actually run task payloads.

:func:`run_in_order` runs a graph in registration order on the calling
thread: the dependence tracker only ever adds an edge from an earlier task
to a later one, so that order is topological, and one thread needs no
scheduler.  :class:`SerialExecutor` is that loop and nothing else — the
reference schedule of the correctness tests.

:class:`ThreadedExecutor` is the real-concurrency engine: worker threads
pull from a shared scheduler under a lock, and a completion releases its
successors with the paper's locality hints.  RNN-cell payloads are
GEMM-dominated NumPy calls that release the GIL, so tasks overlap for real
on a multi-core host — when the GEMMs are large enough to matter, which the
engines decide (:func:`repro.core.graph_builder.plan_granularity`).  One
thread under a ready-queue policy is :func:`run_in_order`; a fuzz seed or
a primed scheduler instance drives the worker loop on any thread count.
Dataflow determinism holds regardless of interleaving: a task only ever
reads regions whose writers completed, so results are bitwise identical to
the serial schedule.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obs.publish import publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.scheduler import SCHEDULERS, resolve_scheduler, start_release
from repro.runtime.task import Task
from repro.runtime.trace import ExecutionTrace, TaskRecord


#: minimum fraction of the successor's working set that must overlap the
#: completed task's data for an affinity hint to be worth issuing — pinning
#: a multi-megabyte cell task to a core because it consumes one small
#: activation would collapse independent chains onto one core.
HINT_MIN_SHARED_FRACTION = 0.25


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


def starved_error(remaining: int) -> RuntimeError:
    """The error of a run whose scheduler has no task to release while none
    is running — e.g. a replayed order that is not topological."""
    return RuntimeError(f"scheduler starved with {remaining} tasks remaining")


def _fill_working_sets(trace: ExecutionTrace, graph: TaskGraph) -> None:
    """Every record's ``wss_bytes``, in one pass after the run: not a sum
    between two payloads, and not inside the workers' critical section."""
    tasks = graph.tasks
    for r in trace.records:
        r.wss_bytes = tasks[r.tid].working_set_bytes()


def run_in_order(
    graph: TaskGraph,
    metrics: Optional[MetricsRegistry] = None,
) -> ExecutionTrace:
    """Run every task of ``graph`` on the calling thread in registration
    order: no scheduler, indegree count, lock or hint.  A payload exception
    propagates as it is, and nothing is published."""
    trace = ExecutionTrace(n_cores=1, scheduler="serial")
    records = trace.records
    epoch = time.perf_counter()
    for task in graph:
        start = time.perf_counter() - epoch
        task.run()
        end = time.perf_counter() - epoch
        records.append(_record(task, 0, start, end))
    _fill_working_sets(trace, graph)
    publish_run(metrics, trace)
    return trace


class SerialExecutor:
    """Run tasks one by one in registration (topological) order."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.n_workers = 1
        self.metrics = metrics

    def run(self, graph: TaskGraph) -> ExecutionTrace:
        return run_in_order(graph, self.metrics)


class ThreadedExecutor:
    """Pool of worker threads draining a dependence-aware ready queue.

    ``scheduler`` is a policy name (``"locality"``, ``"fifo"``,
    ``"fuzz:7"``; an unknown one raises ``ValueError`` here) or a ready
    :class:`~repro.runtime.scheduler.Scheduler` instance — the latter lets
    the race-checking harness inject a primed
    ``RecordingScheduler``/``ReplayScheduler`` (single-use: pass a fresh
    instance per ``run``).
    """

    def __init__(
        self,
        n_workers: int,
        scheduler="locality",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        resolve_scheduler(scheduler, n_workers)  # an unknown name raises here
        self.n_workers = n_workers
        self.scheduler = scheduler
        self.metrics = metrics

    def run(self, graph: TaskGraph, threads: Optional[int] = None) -> ExecutionTrace:
        """Execute ``graph`` on the ``threads`` the engine planned, else on
        ``n_workers`` (at most ``n_workers``).  One thread under a policy
        name is :func:`run_in_order`; otherwise workers release successors
        dynamically, with locality hints."""
        n_threads = min(self.n_workers if threads is None else threads, self.n_workers)
        if n_threads == 1 and self.scheduler in SCHEDULERS:
            return run_in_order(graph, self.metrics)
        scheduler, successors, indegree = start_release(graph, self.scheduler, self.n_workers)
        trace = ExecutionTrace(n_cores=n_threads, scheduler=scheduler.name)
        self._run_threaded(graph, scheduler, successors, indegree, trace)
        _fill_working_sets(trace, graph)
        trace.scheduler_counters = scheduler.counters
        publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
        return trace

    def _run_threaded(self, graph, scheduler, successors, indegree, trace):
        tasks = graph.tasks
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        remaining = len(tasks)
        running = 0
        errors: list = []
        epoch = time.perf_counter()

        def worker(core: int) -> None:
            nonlocal remaining, running
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
                            running += 1
                            break
                        if not running:  # no completion left to push work
                            errors.append(starved_error(remaining))
                            work_available.notify_all()
                            return
                        work_available.wait()
                start = time.perf_counter() - epoch
                try:
                    task.run()
                except BaseException as exc:  # surface payload failures
                    with lock:
                        errors.append(exc)
                        work_available.notify_all()
                    return
                end = time.perf_counter() - epoch
                record = _record(task, core, start, end)
                # A successor waiting for this task alone is freed by it whatever
                # the other workers do: place it before taking the lock.  (One
                # whose other predecessor ends meanwhile is placed under it.)
                hints = {
                    succ_tid: locality_hint(task, tasks[succ_tid], core)
                    for succ_tid in successors[task.tid]
                    if indegree[succ_tid] == 1
                }
                with lock:
                    trace.records.append(record)
                    remaining -= 1
                    running -= 1
                    woke = False
                    for succ_tid in successors[task.tid]:
                        indegree[succ_tid] -= 1
                        if indegree[succ_tid] == 0:
                            succ = tasks[succ_tid]
                            if succ_tid not in hints:
                                hints[succ_tid] = locality_hint(task, succ, core)
                            scheduler.push(succ, hint=hints[succ_tid])
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
