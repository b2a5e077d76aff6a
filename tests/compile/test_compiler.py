"""The compilation pass: reduction, list scheduling, duration estimation."""

import pytest

from repro.compile import compile_graph, estimate_duration
from repro.simarch.costmodel import CostModel
from repro.simarch.presets import xeon_8160_2s
from tests.compile.conftest import build_cost_only


@pytest.fixture
def graph():
    return build_cost_only().graph


def test_order_is_topological_over_declared_graph(graph):
    plan = compile_graph(graph, n_workers=4)
    assert graph.is_topological_order(plan.order)


def test_successors_are_the_transitive_reduction(graph):
    plan = compile_graph(graph)
    reduced, redundant = graph.transitive_reduction()
    assert plan.successors == reduced
    assert plan.meta["n_edges_redundant"] == len(redundant)
    assert plan.meta["n_edges_declared"] == graph.num_edges()
    assert (
        plan.meta["n_edges_reduced"] + plan.meta["n_edges_redundant"]
        == plan.meta["n_edges_declared"]
    )


def test_fused_inference_graph_has_redundancy(graph):
    # the dependence tracker over-declares on a hoisted inference graph, so
    # the transitive reduction has real work to do
    plan = compile_graph(graph)
    assert 0.0 < plan.meta["redundant_edge_fraction"] < 1.0


def test_meta_invariants(graph):
    plan = compile_graph(graph, n_workers=3)
    assert plan.meta["n_tasks"] == len(graph)
    assert plan.meta["compile_time_s"] >= 0.0
    assert plan.meta["critical_path_s"] > 0.0
    # more workers can only help the modelled makespan
    serial = compile_graph(graph, n_workers=1)
    assert plan.meta["est_makespan_s"] <= serial.meta["est_makespan_s"] + 1e-12
    assert plan.meta["est_makespan_s"] >= plan.meta["critical_path_s"] - 1e-12


def test_assignments_respect_worker_count(graph):
    plan = compile_graph(graph, n_workers=3)
    assert set(plan.assignments) <= {0, 1, 2}
    # with enough parallel work the list scheduler uses more than one core
    assert len(set(plan.assignments)) > 1


def test_deterministic(graph):
    a = compile_graph(graph, n_workers=2)
    b = compile_graph(graph, n_workers=2)
    assert a.order == b.order
    assert a.assignments == b.assignments


def test_rejects_bad_worker_count(graph):
    with pytest.raises(ValueError, match="n_workers"):
        compile_graph(graph, n_workers=0)


def test_estimate_duration_stateless(graph):
    cm = CostModel(xeon_8160_2s())
    task = graph.tasks[0]
    first = estimate_duration(cm, task)
    assert first > 0.0
    # estimating any number of tasks never perturbs later estimates
    for t in graph.tasks:
        estimate_duration(cm, t)
    assert estimate_duration(cm, task) == first

