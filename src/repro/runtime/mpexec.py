"""The multiprocess execution substrate: real parallelism past the GIL.

:class:`MultiprocessExecutor` runs task payloads in **worker processes**
(one per core, pinned socket-compactly), so fine-grained task modes that
hold the GIL — short chain tiles, pointwise-heavy GRU graphs — overlap
for real instead of serialising on one interpreter lock.  The design
follows the distributed-manager runtime of Bosch et al.
(arXiv:2009.03066): a single *manager* (this process)
drives the existing scheduler/indegree machinery, and only **task ids —
never arrays — travel over the pipes**.

The executor ships nothing.  Every array a build holds (params, gradients,
inputs, every block of the chunks, the cell caches among them) is rebound
into one POSIX shared-memory *state arena* (:mod:`repro.runtime.shm`) via
``storage.map_storage`` **before the workers fork**.  No payload rebinds
storage: each writes its slots in place, the dependence graph orders the
writes, and every process sees the same pages — zero per-task copies.
Params, gradients, inputs, logits and loss sums are copied in and back;
every other block is zeros or unread on entry to a run and unread after it
(``map_storage``'s ``scratch``), so it gets fresh arena room, which a new
segment fills with zeros, and no copy either way.  After the run the
manager restores the original bindings, so engine-held arrays never
dangle into a segment about to be unlinked.

Workers fork from the manager (closures, graph, and shm mappings are
inherited — nothing about the graph itself is ever pickled), which makes
the substrate Linux/macOS-fork specific by design.  Results are bitwise
identical to the threaded executor: payload arithmetic, accumulation
order, and dataflow are unchanged — only *where* each task runs differs.

Crash containment: the arena is created by the manager, and the
manager's ``finally`` destroys it — success, payload exception, or
worker crash alike, so ``/dev/shm`` can never leak a segment.  A worker
dying mid-task (SIGKILL, OOM) trips its process sentinel inside the same
``connection.wait`` that collects results, and the run fails fast with
:class:`~repro.runtime.protocol.WorkerCrashError` naming the in-flight
task.  There are no cross-process locks anywhere — a killed worker cannot
leave one held, so no failure mode hangs the manager.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from multiprocessing import connection
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.hooks import ProfilingHooks
from repro.obs.publish import publish_mp_workers, publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import locality_hint, starved_error
from repro.runtime.protocol import WorkerCrashError
from repro.runtime.scheduler import resolve_scheduler, start_release
from repro.runtime.shm import ALIGNMENT, ArrayDesc, ShmArena, align_up
from repro.runtime.trace import ExecutionTrace, TaskRecord


def plan_placement(n_workers: int) -> List[int]:
    """Socket-compact core ids for ``n_workers`` workers on the host.

    Mirrors :class:`repro.simarch.machine.MachineSpec` numbering — cores
    are socket-major, so filling core ids in ascending order fills socket
    0 completely before touching socket 1, exactly the placement the
    paper's ≤24-core runs use and the cost model's remote-access pricing
    assumes.  Workers beyond ``os.cpu_count()`` cores wrap.
    """
    total = os.cpu_count() or 1
    return [w % total for w in range(n_workers)]


def _pin_to_core(core_id: int) -> None:
    """Best-effort affinity pin; silently a no-op where unsupported."""
    try:
        host = os.cpu_count() or 1
        os.sched_setaffinity(0, {core_id % host})
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        pass


def _worker_main(worker_id: int, core_id: int, graph: TaskGraph, cmd_r, res_w) -> None:
    """Worker loop: receive a task id, run it, report its times.

    Everything heavy (graph, payload closures, shm mappings) arrived via
    fork; the pipes carry only ids.  Any exception is reported as an
    ``("error", …)`` message and the worker exits; it never blocks on a
    lock, so the manager can always make progress.
    """
    _pin_to_core(core_id)
    stats = {"tasks": 0, "exec_seconds": 0.0}
    current_tid: Optional[int] = None
    try:
        while True:
            msg = cmd_r.recv()
            if msg[0] == "exit":
                res_w.send(("bye", worker_id, stats))
                return
            current_tid = msg[1]
            t0 = time.perf_counter()
            graph.tasks[current_tid].run()
            t1 = time.perf_counter()
            stats["tasks"] += 1
            stats["exec_seconds"] += t1 - t0
            res_w.send(("done", current_tid, t0, t1))
            current_tid = None
    except EOFError:  # manager went away; nothing left to report to
        return
    except BaseException as exc:
        tb = traceback.format_exc()
        try:
            payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as ser_exc:  # arbitrary __reduce__ can raise anything
            payload = None
            tb += f"\n(exception not picklable: {ser_exc!r})"
        try:
            res_w.send(("error", worker_id, current_tid, payload, tb))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass


class _Worker(NamedTuple):
    """Manager-side handle: process and pipe ends."""

    proc: multiprocessing.process.BaseProcess
    cmd_w: connection.Connection
    res_r: connection.Connection


class MultiprocessExecutor:
    """Process-pool executor with shared-memory region storage.

    Drop-in :class:`~repro.runtime.protocol.Executor`: construct via
    ``ExecutionConfig(executor="process", n_workers=…)`` and every engine
    accepts it unchanged.  Every run starts ``n_workers`` processes and
    releases successors dynamically, with locality hints.

    Parameters mirror :class:`~repro.runtime.executor.ThreadedExecutor`
    (an unknown ``scheduler`` name raises ``ValueError`` here); workers
    are pinned by :func:`plan_placement`.
    """

    def __init__(
        self,
        n_workers: int,
        scheduler="locality",
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessExecutor requires the 'fork' start method "
                "(workers inherit the graph and shared-memory mappings)"
            )
        resolve_scheduler(scheduler, n_workers)  # an unknown name raises here
        self.n_workers = n_workers
        self.scheduler = scheduler
        self.metrics = metrics
        self.hooks = hooks

    # -- execution -----------------------------------------------------------

    def run(self, graph: TaskGraph) -> ExecutionTrace:
        """Execute ``graph``; semantics match ``ThreadedExecutor.run`` on
        ``n_workers`` threads (dynamic dependence resolution)."""
        scheduler, successors, indegree = start_release(
            graph, self.scheduler, self.n_workers
        )
        scheduler.hooks = self.hooks
        hooks = self.hooks
        trace = ExecutionTrace(n_cores=self.n_workers, scheduler=scheduler.name)
        n_tasks = len(graph.tasks)
        if n_tasks == 0:
            trace.scheduler_counters = scheduler.counters
            publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
            return trace

        storage = graph.storage
        functional = bool(
            storage is not None and getattr(storage, "functional", False)
        )

        state_arena: Optional[ShmArena] = None
        restore: List[Tuple] = []  # (original array, shm view, copied in)
        workers: List[_Worker] = []
        errors: List[BaseException] = []
        worker_stats: Dict[int, dict] = {}
        remaining = n_tasks

        try:
            # 1. Rebind storage into the shared state arena (before fork, so
            #    every worker inherits the same pages): copied in, or only
            #    given fresh, zero-filled room (``scratch``).
            if functional:
                sizes: List[int] = []
                storage.map_storage(lambda a: (sizes.append(align_up(a.nbytes)), a)[1])
                state_arena = ShmArena(sum(sizes) + ALIGNMENT)

                def _share(a, copy=True):
                    if copy:
                        desc = state_arena.put_array(a)
                    else:
                        desc = ArrayDesc(state_arena.alloc(a.nbytes), a.dtype.str, a.shape)
                    view = state_arena.view_array(desc)
                    restore.append((a, view, copy))
                    return view

                storage.map_storage(_share, lambda a: _share(a, copy=False))

            # 2. Fork pinned workers.
            ctx = multiprocessing.get_context("fork")
            cores = plan_placement(self.n_workers)
            for i in range(self.n_workers):
                cmd_r, cmd_w = ctx.Pipe(duplex=False)
                res_r, res_w = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(i, cores[i], graph, cmd_r, res_w),
                    daemon=True,
                )
                proc.start()
                cmd_r.close()
                res_w.close()
                workers.append(_Worker(proc, cmd_w, res_r))

            # 3. Manager loop: dispatch to idle workers, collect results,
            #    release successors — the scheduler machinery is exactly
            #    the threaded executor's, driven from one process.
            epoch = time.perf_counter()
            idle = deque(range(self.n_workers))
            inflight: Dict[int, object] = {}  # wid -> Task

            while remaining and not errors:
                while idle:
                    try:
                        task = scheduler.pop(idle[0])
                    except BaseException as exc:  # e.g. replay mismatch
                        errors.append(exc)
                        break
                    if task is None:
                        break
                    wid = idle.popleft()
                    w = workers[wid]
                    if hooks is not None:
                        hooks.on_task_start(task, wid, time.perf_counter() - epoch)
                    try:
                        w.cmd_w.send(("task", task.tid))
                    except (BrokenPipeError, OSError):
                        # the worker died while idle; attribute the task
                        errors.append(
                            WorkerCrashError(wid, w.proc.pid, task.name)
                        )
                        break
                    inflight[wid] = task
                if errors:
                    break
                if not inflight:
                    errors.append(starved_error(remaining))
                    break

                res_by_obj = {workers[wid].res_r: wid for wid in inflight}
                sentinel_by_obj = {
                    workers[wid].proc.sentinel: wid for wid in inflight
                }
                ready = connection.wait(
                    list(res_by_obj) + list(sentinel_by_obj)
                )
                messages = []
                for obj in ready:
                    wid = res_by_obj.get(obj)
                    if wid is None:
                        continue
                    try:
                        while obj.poll(0):
                            messages.append((wid, obj.recv()))
                    except (EOFError, OSError):
                        pass  # dead pipe: the sentinel path below reports it
                if not messages:
                    for obj in ready:
                        wid = sentinel_by_obj.get(obj)
                        if wid is not None and not workers[wid].proc.is_alive():
                            task = inflight.pop(wid)
                            errors.append(
                                WorkerCrashError(
                                    wid, workers[wid].proc.pid, task.name
                                )
                            )
                    continue

                for wid, msg in messages:
                    kind = msg[0]
                    if kind == "done":
                        _, tid, t0, t1 = msg
                        task = inflight.pop(wid)
                        start, end = t0 - epoch, t1 - epoch
                        if hooks is not None:
                            hooks.on_task_end(task, wid, end)
                        trace.records.append(
                            TaskRecord(
                                tid=task.tid,
                                name=task.name,
                                kind=task.kind,
                                core=wid,
                                start=start,
                                end=end,
                                flops=task.flops,
                                wss_bytes=task.working_set_bytes(),
                            )
                        )
                        remaining -= 1
                        for succ_tid in successors[task.tid]:
                            indegree[succ_tid] -= 1
                            if indegree[succ_tid] == 0:
                                succ = graph.tasks[succ_tid]
                                scheduler.push(
                                    succ, hint=locality_hint(task, succ, wid)
                                )
                        idle.append(wid)
                    elif kind == "error":
                        _, _w, tid, payload, tb = msg
                        inflight.pop(wid, None)
                        exc: Optional[BaseException] = None
                        if payload is not None:
                            try:
                                exc = pickle.loads(payload)
                            except Exception as undec:
                                tb += f"\n(error payload failed to unpickle: {undec!r})"
                        if exc is None:
                            exc = RuntimeError(
                                f"worker {wid} failed"
                                + (f" in task {tid}" if tid is not None else "")
                                + f":\n{tb}"
                            )
                        errors.append(exc)

            # 4. Graceful shutdown on success: collect worker stats.
            if not errors:
                for wid, w in enumerate(workers):
                    try:
                        w.cmd_w.send(("exit",))
                    except (BrokenPipeError, OSError):
                        continue
                for wid, w in enumerate(workers):
                    try:
                        if w.res_r.poll(5.0):
                            msg = w.res_r.recv()
                            if msg[0] == "bye":
                                worker_stats[wid] = msg[2]
                    except (EOFError, OSError):
                        pass
                    w.proc.join(5.0)
        finally:
            for w in workers:
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(2.0)
                if w.proc.is_alive():  # pragma: no cover - hard kill path
                    w.proc.kill()
                    w.proc.join(2.0)
                for conn_end in (w.cmd_w, w.res_r):
                    try:
                        conn_end.close()
                    except OSError:  # pragma: no cover
                        pass
            # Copy shared state back (what was copied in) and restore the
            # original bindings while the state arena is still mapped;
            # THEN unlink everything.  Runs on success, payload failure,
            # and worker crash alike — no path leaks a segment.
            if restore:
                originals = {id(view): (orig, copy) for orig, view, copy in restore}

                def _unshare(a):
                    # an array never shared cannot occur (no payload rebinds
                    # storage), but the arena must go whatever is mapped
                    orig, copy = originals.get(id(a), (a, False))
                    if copy:
                        orig[...] = a
                    return orig

                storage.map_storage(_unshare)
                restore.clear()
            if state_arena is not None:
                state_arena.destroy()

        if errors:
            raise errors[0]
        if remaining != 0:  # pragma: no cover - defensive deadlock check
            raise RuntimeError(
                f"executor finished with {remaining} unexecuted tasks"
            )
        trace.scheduler_counters = scheduler.counters
        publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
        publish_mp_workers(self.metrics, worker_stats)
        return trace

