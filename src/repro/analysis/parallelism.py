"""Parallelism metrics of declared task graphs.

Over-declaration fails silently: every spurious ``inout`` serialises
tasks that could run concurrently, and no correctness test ever notices.
The dependence proof (:func:`repro.analysis.verify.verify_build`) rejects
declarations no value needs; this module measures what the declared
structure costs:

* the **transitive reduction** splits declared edges into order-defining
  and redundant ones (redundant edges are normal — the tracker derives
  one edge per region/hazard pair — but their count is the
  dependence-management overhead Bosch et al. identify as the
  scalability limiter);
* width (max wavefront), span in tasks and in flops (reusing the
  per-task flops the kernels' cost model attaches), average parallelism,
  and a **serialization debt** score: declared span divided by the span
  of the pure-dataflow (RAW-only) subgraph.  Debt of 1.0 means the
  declarations impose exactly the ordering the values require; barriers
  and token chains push it above 1.

All of it runs on cost-only builds (``seq_len``/``batch`` instead of
real tensors): graph *structure* is independent of hidden size.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.runtime.depgraph import (
    TaskGraph,
    longest_path,
    transitive_reduction,
    wavefront_width,
)


def dataflow_successors(graph: TaskGraph) -> List[List[int]]:
    """The RAW-only subgraph of the declared edges.

    Keeps edge ``a → b`` iff some *data-carrying* region written by ``a``
    is read by ``b`` — the orderings the values require.  WAR/WAW edges
    (renaming could remove them), barrier edges (no shared region at
    all), and zero-byte serialisation tokens (pure ordering by intent —
    the B-Seq chunk chain) all drop out, so the longest path through this
    subgraph is the true dataflow span the declared graph is compared
    against: B-Seq's debt shows exactly how much parallelism the token
    chain trades away.
    """
    flow: List[List[int]] = []
    for a, succs in enumerate(graph.successors):
        task_a = graph.tasks[a]
        written = {id(r) for r in task_a.writes() if r.nbytes > 0}
        keep = []
        for b in succs:
            reads_b = {id(r) for r in graph.tasks[b].reads() if r.nbytes > 0}
            if written & reads_b:
                keep.append(b)
        flow.append(keep)
    return flow


def parallelism_metrics(graph: TaskGraph) -> Dict[str, float]:
    """Width, spans, average parallelism, serialization debt and the
    write-only region count of one declared graph."""
    succ = graph.successors
    n = len(graph.tasks)
    weights_unit = [1.0] * n
    weights_flops = [float(t.flops) for t in graph.tasks]
    _, redundant = transitive_reduction(succ)
    n_edges = sum(len(s) for s in succ)

    span_tasks = longest_path(succ, weights_unit)
    span_flops = longest_path(succ, weights_flops)
    total_flops = sum(weights_flops)
    width = wavefront_width(succ)

    flow = dataflow_successors(graph)
    dataflow_span = longest_path(flow, weights_unit)

    # Regions written by exactly one task and never read anywhere: the
    # write costs nothing in ordering (no other accessor) but the memory
    # traffic may be avoidable — reported as a metric, not a finding,
    # because e.g. an inference graph's logits are its output, which no
    # task reads.
    readers: Set[int] = set()
    accessors: Dict[int, int] = {}
    for t in graph.tasks:
        for r in t.reads():
            readers.add(id(r))
        for r in t.regions():
            accessors[id(r)] = accessors.get(id(r), 0) + 1
    write_only = sum(
        1
        for t in graph.tasks
        for r in t.outs
        if id(r) not in readers and accessors[id(r)] == 1 and r.nbytes > 0
    )

    return {
        "n_tasks": float(n),
        "n_edges": float(n_edges),
        "n_redundant_edges": float(len(redundant)),
        "redundant_edge_fraction": (len(redundant) / n_edges) if n_edges else 0.0,
        "width": float(width),
        "span_tasks": span_tasks,
        "span_flops": span_flops,
        "total_flops": total_flops,
        "avg_parallelism": (n / span_tasks) if span_tasks else 0.0,
        "dataflow_span_tasks": dataflow_span,
        "serialization_debt": (span_tasks / dataflow_span) if dataflow_span else 1.0,
        "write_only_regions": float(write_only),
    }
