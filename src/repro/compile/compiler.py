"""The compilation pass: declared graph → :class:`CompiledPlan`.

Two stages, both ahead of execution time:

1. **Transitive reduction** — the dependence tracker derives one edge per
   (region, hazard) pair, so declared graphs carry many redundant edges
   (:mod:`repro.analysis.parallelism` measures ~45 % on the paper-scale
   BLSTM).  Reachability is preserved exactly, so replaying over the
   reduced set enforces every declared dependence while the per-completion
   bookkeeping shrinks accordingly.
2. **List scheduling** — tasks are released by descending *bottom level*
   (longest remaining path to a sink, weighted by the ``simarch`` cost
   model's static duration estimate) onto the earliest-available worker.
   The selection sequence is by construction a topological order of the
   (reduced, hence also the declared) graph, which is what
   :class:`~repro.runtime.scheduler.ReplayScheduler` needs to guarantee
   replay progress; the per-worker assignment and estimated makespan are
   recorded as plan metadata.

Duration estimation deliberately avoids the dynamic :class:`CacheModel`
state: ``overhead + max(compute, mem) + κ·min(compute, mem)`` with the
memory term priced at L3 bandwidth and the per-kind reuse factors of
:data:`repro.simarch.costmodel.DEFAULT_REUSE` — deterministic, stateless,
and accurate enough to rank tasks.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional

from repro.compile.plan import CompiledPlan
from repro.runtime.depgraph import TaskGraph
from repro.runtime.task import Task
from repro.simarch.costmodel import RESIDUAL, CostModel
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import xeon_8160_2s


def estimate_duration(cost_model: CostModel, task: Task) -> float:
    """Static (cache-state-free) duration estimate of one task.

    Same roofline shape as :meth:`CostModel.cost` but with the whole
    working set priced at L3 bandwidth times the kind's reuse factor —
    no residency tracking, so estimating N tasks never perturbs a later
    simulation.
    """
    m = cost_model.machine
    compute = cost_model.compute_time(task)
    reuse = float(task.meta.get("reuse", cost_model.reuse.get(task.kind, 1.0)))
    mem = task.working_set_bytes() * reuse / (m.l3_bw_gbps * 1e9)
    return m.task_overhead_s + max(compute, mem) + RESIDUAL * min(compute, mem)


def compile_graph(
    graph: TaskGraph,
    n_workers: int = 1,
    *,
    machine: Optional[MachineSpec] = None,
    cost_model: Optional[CostModel] = None,
) -> CompiledPlan:
    """Compile ``graph`` into a static replayable :class:`CompiledPlan`."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    t0 = time.perf_counter()
    cm = cost_model or CostModel(machine or xeon_8160_2s())
    n = len(graph)
    reduced, redundant = graph.transitive_reduction()
    durations = [estimate_duration(cm, t) for t in graph.tasks]

    # Bottom level over the reduced edges (same value as over the declared
    # edges: reduction preserves reachability, hence all longest paths).
    rank = [0.0] * n
    for tid in range(n - 1, -1, -1):
        best = 0.0
        for s in reduced[tid]:
            if rank[s] > best:
                best = rank[s]
        rank[tid] = durations[tid] + best

    indeg = [0] * n
    for succs in reduced:
        for s in succs:
            indeg[s] += 1
    ready = [(-rank[tid], tid) for tid in range(n) if indeg[tid] == 0]
    heapq.heapify(ready)

    core_free = [0.0] * n_workers
    ready_time = [0.0] * n
    order: List[int] = []
    names: List[str] = []
    assignments: List[int] = []
    makespan = 0.0
    while ready:
        _, tid = heapq.heappop(ready)
        core = min(range(n_workers), key=lambda c: (core_free[c], c))
        start = max(core_free[core], ready_time[tid])
        finish = start + durations[tid]
        core_free[core] = finish
        if finish > makespan:
            makespan = finish
        order.append(tid)
        names.append(graph.tasks[tid].name)
        assignments.append(core)
        for s in reduced[tid]:
            if finish > ready_time[s]:
                ready_time[s] = finish
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, (-rank[s], s))

    if len(order) != n:  # pragma: no cover - defensive (graphs are acyclic)
        raise RuntimeError(f"list scheduling placed {len(order)} of {n} tasks")

    n_declared = graph.num_edges()
    n_reduced = sum(len(s) for s in reduced)
    return CompiledPlan(
        order=order,
        names=names,
        assignments=assignments,
        successors=reduced,
        n_workers=n_workers,
        meta={
            "n_tasks": float(n),
            "n_edges_declared": float(n_declared),
            "n_edges_reduced": float(n_reduced),
            "n_edges_redundant": float(len(redundant)),
            "redundant_edge_fraction": (
                len(redundant) / n_declared if n_declared else 0.0
            ),
            "critical_path_s": max(rank) if rank else 0.0,
            "est_makespan_s": makespan,
            "compile_time_s": time.perf_counter() - t0,
        },
    )
