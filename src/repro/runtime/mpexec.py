"""The multiprocess execution substrate: real parallelism past the GIL.

:class:`MultiprocessExecutor` runs task payloads in **worker processes**
(one per core, pinned socket-compactly), so fine-grained task modes that
hold the GIL — ``fusion="off"`` per-gate kernels, short chain tiles,
pointwise-heavy GRU graphs — overlap for real instead of serialising on
one interpreter lock.  The design follows the distributed-manager runtime
of Bosch et al. (arXiv:2009.03066): a single *manager* (this process)
drives the existing scheduler/indegree machinery, and only **task ids and
region slot descriptors — never arrays — travel over the pipes**.

Data movement instead goes through POSIX shared memory
(:mod:`repro.runtime.shm`), in two disciplines derived from how the graph
builder stores regions:

* **Preallocated storage** (params, gradients, velocity, inputs, the
  ``dh``/``dc``/``dm`` accumulator grids) is rebound into a single shm
  *state arena* via ``storage.map_storage`` **before the workers fork**.
  Payloads mutate these buffers in place, the dependence graph orders the
  mutations, and every process sees the same pages — zero per-task copies.
  After the run the manager copies the arena back and restores the
  original bindings, so engine-held arrays never dangle into a segment
  about to be unlinked.
* **Lazily-materialised slots** (``h``/``cache``/``zx``/…, assigned by
  payloads) land in the writing worker's private memory.  The worker
  pickles each slot that has downstream readers into its *export arena*
  and reports a :class:`~repro.runtime.shm.ShmBlock` descriptor; the
  manager versions descriptors and attaches the needed ones to each
  dispatch, so a reader imports a slot at most once per version.

Workers fork from the manager (closures, graph, and shm mappings are
inherited — nothing about the graph itself is ever pickled), which makes
the substrate Linux/macOS-fork specific by design.  Results are bitwise
identical to the threaded executor: payload arithmetic, accumulation
order, and dataflow are unchanged — only *where* each task runs differs.

Crash containment: every arena is created by the manager, and the
manager's ``finally`` destroys them all — success, payload exception, or
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
from typing import Dict, List, Optional, Tuple

from repro.obs.hooks import ProfilingHooks
from repro.obs.publish import publish_mp_workers, publish_run
from repro.obs.registry import MetricsRegistry
from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import SchedulerFactory, locality_hint
from repro.runtime.protocol import WorkerCrashError
from repro.runtime.scheduler import (
    LocalityAwareScheduler,
    ReplayScheduler,
    resolve_scheduler,
)
from repro.runtime.shm import ALIGNMENT, ShmArena
from repro.runtime.trace import ExecutionTrace, TaskRecord

#: floor on an export arena's size — tiny graphs still get working room
MIN_ARENA_BYTES = 1 << 20

#: per-exported-slot allowance on top of the raw payload bytes (pickle
#: framing, array headers, alignment padding)
EXPORT_SLACK_BYTES = 1024


def plan_placement(n_workers: int, topology=None) -> List[int]:
    """Socket-compact core ids for ``n_workers`` workers.

    Mirrors :class:`repro.simarch.machine.MachineSpec` numbering — cores
    are socket-major, so filling core ids in ascending order fills socket
    0 completely before touching socket 1, exactly the placement the
    paper's ≤24-core runs use and the cost model's remote-access pricing
    assumes.  ``topology`` is anything with ``n_sockets``/
    ``cores_per_socket`` (e.g. a ``MachineSpec``), an ``(n_sockets,
    cores_per_socket)`` tuple, or ``None`` for the host (one socket,
    ``os.cpu_count()`` cores).  Workers beyond the core count wrap.
    """
    if topology is None:
        n_sockets, cores_per_socket = 1, os.cpu_count() or 1
    elif hasattr(topology, "n_sockets"):
        n_sockets, cores_per_socket = topology.n_sockets, topology.cores_per_socket
    else:
        n_sockets, cores_per_socket = topology
    total = max(1, n_sockets * cores_per_socket)
    return [w % total for w in range(n_workers)]


def _pin_to_core(core_id: int) -> None:
    """Best-effort affinity pin; silently a no-op where unsupported."""
    try:
        host = os.cpu_count() or 1
        os.sched_setaffinity(0, {core_id % host})
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        pass


def _worker_main(
    worker_id: int,
    core_id: int,
    graph: TaskGraph,
    functional: bool,
    exports_by_task: Dict[int, Tuple],
    arenas: Dict[str, ShmArena],
    arena_name: Optional[str],
    cmd_r,
    res_w,
) -> None:
    """Worker loop: receive ``(task, tid, imports)``, run, report exports.

    Everything heavy (graph, payload closures, shm mappings) arrived via
    fork; the pipes carry only ids and descriptors.  Any exception —
    payload failure, unpicklable export, arena exhaustion — is reported as
    an ``("error", …)`` message and the worker exits; it never blocks on a
    lock, so the manager can always make progress.
    """
    _pin_to_core(core_id)
    storage = graph.storage
    my_arena = arenas[arena_name] if arena_name is not None else None
    stats = {
        "tasks": 0, "imports": 0, "exports": 0,
        "import_bytes": 0, "export_bytes": 0, "exec_seconds": 0.0,
    }
    current_tid: Optional[int] = None
    try:
        while True:
            msg = cmd_r.recv()
            if msg[0] == "exit":
                res_w.send(("bye", worker_id, stats))
                return
            _, tid, imports = msg
            current_tid = tid
            task = graph.tasks[tid]
            for key, block in imports:
                payload = arenas[block.segment].get_pickle(block)
                storage.import_region(key, payload)
                stats["imports"] += 1
                stats["import_bytes"] += block.nbytes
            t0 = time.perf_counter()
            task.run()
            t1 = time.perf_counter()
            stats["tasks"] += 1
            stats["exec_seconds"] += t1 - t0
            exports = []
            for key in exports_by_task.get(tid, ()):
                block = my_arena.put_pickle(storage.export_region(key))
                exports.append((key, block))
                stats["exports"] += 1
                stats["export_bytes"] += block.nbytes
            side = storage.export_side_state(task) if functional else []
            res_w.send(("done", tid, exports, side, t0, t1))
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


class _Worker:
    """Manager-side handle: process, pipe ends, per-version import cache."""

    __slots__ = ("proc", "cmd_w", "res_r", "core", "seen", "stats")

    def __init__(self, proc, cmd_w, res_r, core: int) -> None:
        self.proc = proc
        self.cmd_w = cmd_w
        self.res_r = res_r
        self.core = core
        self.seen: Dict = {}  # region key -> last imported version
        self.stats: Optional[dict] = None


class MultiprocessExecutor:
    """Process-pool executor with shared-memory region storage.

    Drop-in :class:`~repro.runtime.protocol.Executor`: construct via
    ``ExecutionConfig(executor="process", n_workers=…)`` and every engine
    accepts it unchanged, including compiled-plan replay (``run(graph,
    plan=…)``) for the serving warm path.

    Parameters mirror :class:`~repro.runtime.executor.ThreadedExecutor`;
    ``topology`` additionally controls socket-aware placement (see
    :func:`plan_placement`).
    """

    def __init__(
        self,
        n_workers: int,
        scheduler_factory: SchedulerFactory = LocalityAwareScheduler,
        metrics: Optional[MetricsRegistry] = None,
        hooks: Optional[ProfilingHooks] = None,
        topology=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessExecutor requires the 'fork' start method "
                "(workers inherit the graph and shared-memory mappings)"
            )
        self.n_workers = n_workers
        self._scheduler_factory = scheduler_factory
        self.metrics = metrics
        self.hooks = hooks
        self.topology = topology

    # -- setup helpers -------------------------------------------------------

    def _transport_tables(self, graph: TaskGraph, storage, functional: bool):
        """Per-task import/export key lists plus the export-arena size.

        A write region is exported only when its kind is lazily
        materialised AND someone other than its writer reads it (or the
        manager needs it for result readback) — accumulator regions and
        dead stores ship nothing.
        """
        if not functional:
            return {}, {}, MIN_ARENA_BYTES
        shipped = storage.shipped_kinds()
        parent_kinds = storage.parent_kinds()
        readers: Dict = {}
        imports_by_task: Dict[int, Tuple] = {}
        for task in graph.tasks:
            keys = tuple(r.key for r in task.reads() if r.key[0] in shipped)
            if keys:
                imports_by_task[task.tid] = keys
                for key in keys:
                    readers.setdefault(key, set()).add(task.tid)
        exports_by_task: Dict[int, Tuple] = {}
        export_bytes = 0
        for task in graph.tasks:
            keys = []
            for region in task.writes():
                key = region.key
                if key[0] not in shipped:
                    continue
                if key[0] not in parent_kinds and not any(
                    t != task.tid for t in readers.get(key, ())
                ):
                    continue
                keys.append(key)
                hint = storage.export_region_nbytes(key, region.nbytes)
                export_bytes += _round_up(hint) + EXPORT_SLACK_BYTES
            if keys:
                exports_by_task[task.tid] = tuple(keys)
        capacity = max(MIN_ARENA_BYTES, export_bytes + export_bytes // 8)
        return imports_by_task, exports_by_task, capacity

    # -- execution -----------------------------------------------------------

    def run(self, graph: TaskGraph, plan=None) -> ExecutionTrace:
        """Execute ``graph``; semantics match ``ThreadedExecutor.run``
        (dynamic dependence resolution, or static replay with ``plan``)."""
        if plan is not None:
            plan.validate(graph)
            scheduler = ReplayScheduler(plan.to_schedule_record(), self.n_workers)
            successors = plan.successors
            indegree = plan.indegree()
        else:
            scheduler = resolve_scheduler(self._scheduler_factory, self.n_workers)
            successors = graph.successors
            indegree = list(graph.indegree)
        scheduler.hooks = self.hooks
        hooks = self.hooks
        replay = plan is not None
        trace = ExecutionTrace(
            n_cores=self.n_workers, scheduler=getattr(scheduler, "name", "?")
        )
        n_tasks = len(graph.tasks)
        if n_tasks == 0:
            trace.scheduler_counters = scheduler.counters
            publish_run(self.metrics, trace, scheduler.counters, trace.scheduler)
            return trace

        storage = graph.storage
        functional = bool(
            storage is not None and getattr(storage, "functional", False)
        )
        imports_by_task, exports_by_task, arena_capacity = self._transport_tables(
            graph, storage, functional
        )

        state_arena: Optional[ShmArena] = None
        export_arenas: Dict[str, ShmArena] = {}
        restore: List[Tuple] = []  # (original array, shm view)
        workers: List[_Worker] = []
        errors: List[BaseException] = []
        worker_stats: Dict[int, dict] = {}
        remaining = n_tasks

        try:
            # 1. Rebind preallocated storage into the shared state arena
            #    (before fork, so every worker inherits the same pages).
            if functional:
                sizes: List[int] = []
                storage.map_storage(lambda a: (sizes.append(a.nbytes), a)[1])
                state_arena = ShmArena(
                    sum(_round_up(s) for s in sizes) + ALIGNMENT
                )

                def _share(a):
                    desc = state_arena.put_array(a)
                    view = state_arena.view_array(desc)
                    restore.append((a, view))
                    return view

                storage.map_storage(_share)

            # 2. One export arena per worker: bump-allocated by its owner
            #    only, so no cross-process synchronisation exists to leak
            #    or deadlock when a worker dies.
            arena_names: List[Optional[str]] = []
            if functional:
                for _ in range(self.n_workers):
                    arena = ShmArena(arena_capacity)
                    export_arenas[arena.name] = arena
                    arena_names.append(arena.name)
            else:
                arena_names = [None] * self.n_workers

            # 3. Fork pinned workers.
            ctx = multiprocessing.get_context("fork")
            cores = plan_placement(self.n_workers, self.topology)
            for i in range(self.n_workers):
                cmd_r, cmd_w = ctx.Pipe(duplex=False)
                res_r, res_w = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        i, cores[i], graph, functional, exports_by_task,
                        export_arenas, arena_names[i], cmd_r, res_w,
                    ),
                    daemon=True,
                )
                proc.start()
                cmd_r.close()
                res_w.close()
                workers.append(_Worker(proc, cmd_w, res_r, cores[i]))

            # 4. Manager loop: dispatch to idle workers, collect results,
            #    release successors — the scheduler machinery is exactly
            #    the threaded executor's, driven from one process.
            epoch = time.perf_counter()
            versions: Dict = {}  # key -> (version, block, writer wid)
            completions = 0
            idle = deque(range(self.n_workers))
            inflight: Dict[int, object] = {}  # wid -> Task

            if replay:
                for tid, deg in enumerate(indegree):
                    if deg == 0:
                        scheduler.push(graph.tasks[tid])
            else:
                for task in graph.roots():
                    scheduler.push(task)

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
                    needed = []
                    for key in imports_by_task.get(task.tid, ()):
                        entry = versions.get(key)
                        if entry is None:
                            continue
                        vno, block, writer = entry
                        if writer == wid or w.seen.get(key) == vno:
                            continue
                        needed.append((key, block))
                        w.seen[key] = vno
                    if hooks is not None:
                        hooks.on_task_start(task, wid, time.perf_counter() - epoch)
                    try:
                        w.cmd_w.send(("task", task.tid, needed))
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
                    errors.append(
                        RuntimeError(
                            f"scheduler starved with {remaining} tasks remaining"
                        )
                    )
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
                        _, tid, exports, side, t0, t1 = msg
                        task = inflight.pop(wid)
                        w = workers[wid]
                        completions += 1
                        for key, block in exports:
                            versions[key] = (completions, block, wid)
                            w.seen[key] = completions
                            if key[0] in storage.parent_kinds():
                                storage.import_region(
                                    key,
                                    export_arenas[block.segment].get_pickle(block),
                                )
                        if side:
                            storage.apply_side_state(side)
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
                                hint = (
                                    None if replay
                                    else locality_hint(task, succ, wid)
                                )
                                scheduler.push(succ, hint=hint)
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

            # 5. Graceful shutdown on success: collect worker stats.
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
            # Copy shared state back and restore the original bindings
            # while the state arena is still mapped; THEN unlink
            # everything.  Runs on success, payload failure, and worker
            # crash alike — no path leaks a segment.
            if restore:
                originals = {id(view): orig for orig, view in restore}

                def _unshare(a):
                    orig = originals.get(id(a))
                    if orig is None:
                        return a  # materialised after sharing (imports)
                    orig[...] = a
                    return orig

                storage.map_storage(_unshare)
                restore.clear()
            if state_arena is not None:
                state_arena.destroy()
            for arena in export_arenas.values():
                arena.destroy()

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


def _round_up(n: int) -> int:
    return (max(1, int(n)) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
