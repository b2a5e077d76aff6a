"""The compiled-plan artifact: a static schedule of one task graph.

A :class:`CompiledPlan` freezes everything an executor re-derives
dynamically on every invocation; the simulated executor is the one that
replays it (a real executor resolves dependences dynamically):

* the **reduced edge set** — the transitive reduction of the declared
  dependence graph (same reachability, ~45 % fewer edges on the
  paper-scale BLSTM graph per ``BENCH_graph_analysis.json``), so replay
  pays fewer indegree decrements per completion;
* the **release order** — a list-scheduled topological order of the
  reduced graph (priority = bottom-level under the ``simarch`` cost
  model), which :class:`~repro.runtime.scheduler.ReplayScheduler` reads
  straight off the plan;
* the **core assignments** and the estimated makespan the list scheduler
  produced — metadata for reports, not enforced at replay time (the
  replay scheduler releases the next prescribed task to whichever worker
  asks first, which keeps replay work-conserving).

Plans are in-memory artifacts of the engine that compiled them;
:meth:`CompiledPlan.validate` refuses to replay against a graph whose task
count or names drifted from the plan, mirroring the
:class:`~repro.runtime.scheduler.ScheduleRecord` name-check contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.depgraph import TaskGraph


@dataclass
class CompiledPlan:
    """A static execution plan for one task graph.

    ``order``/``names`` follow
    :class:`~repro.runtime.scheduler.ScheduleRecord` conventions:
    ``order[i]`` is the tid released at step ``i`` and ``names[i]`` its
    task name (the drift guard).  ``assignments[i]`` is the core the list
    scheduler placed step ``i`` on.  ``successors`` is the transitive
    reduction's successor list, indexed by tid.
    """

    order: List[int]
    names: List[str]
    assignments: List[int]
    successors: List[List[int]]
    n_workers: int = 1
    meta: Dict[str, float] = field(default_factory=dict)
    _indegree: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_tasks(self) -> int:
        return len(self.order)

    def n_edges(self) -> int:
        """Edges replay actually manages (the reduced set)."""
        return sum(len(s) for s in self.successors)

    def indegree(self) -> List[int]:
        """Fresh per-run indegree counters over the reduced edge set
        (counted on first use; a plan is not edited once it is replayed)."""
        if self._indegree is None:
            indeg = [0] * len(self.successors)
            for succs in self.successors:
                for s in succs:
                    indeg[s] += 1
            self._indegree = indeg
        return list(self._indegree)

    def validate(self, graph: TaskGraph) -> None:
        """Refuse to replay against a graph the plan was not compiled for.

        Checks the task count and every (tid, name) pair — the same
        contract :class:`~repro.runtime.scheduler.ReplayScheduler`
        enforces lazily at pop time, applied up front so a stale cached
        plan fails before any payload runs.
        """
        if len(graph) != len(self.order):
            raise ValueError(
                f"plan covers {len(self.order)} tasks, graph has {len(graph)}"
            )
        if len(self.successors) != len(graph):
            raise ValueError(
                f"plan edge set covers {len(self.successors)} tasks, "
                f"graph has {len(graph)}"
            )
        for i, tid in enumerate(self.order):
            if not 0 <= tid < len(graph):
                raise ValueError(f"plan order names unknown tid {tid}")
            if graph.tasks[tid].name != self.names[i]:
                raise ValueError(
                    f"plan mismatch at step {i}: compiled {self.names[i]!r}, "
                    f"graph has {graph.tasks[tid].name!r} (tid {tid})"
                )

    def without_edge(self, a: int, b: int) -> "CompiledPlan":
        """A copy of this plan with reduced edge ``a → b`` deleted.

        Every edge of a transitive reduction is order-defining (no
        parallel path exists, by minimality), so the copy must fail
        :func:`~repro.runtime.racecheck.check_plan`'s closure audit —
        the mutation the verifier's plan-soundness self-test seeds.
        """
        if b not in self.successors[a]:
            raise ValueError(f"plan has no edge {a} → {b}")
        successors = [list(s) for s in self.successors]
        successors[a].remove(b)
        return CompiledPlan(
            order=list(self.order),
            names=list(self.names),
            assignments=list(self.assignments),
            successors=successors,
            n_workers=self.n_workers,
            meta=dict(self.meta),
        )

