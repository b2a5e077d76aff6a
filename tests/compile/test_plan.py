"""CompiledPlan: structure and validation."""

import pytest

from repro.compile import compile_graph
from repro.runtime.scheduler import ReplayScheduler
from tests.compile.conftest import build_cost_only


@pytest.fixture
def graph():
    return build_cost_only().graph


@pytest.fixture
def plan(graph):
    return compile_graph(graph, n_workers=2)


def test_plan_covers_graph(graph, plan):
    assert plan.n_tasks == len(graph)
    assert sorted(plan.order) == list(range(len(graph)))
    assert len(plan.names) == len(plan.order) == len(plan.assignments)
    assert all(0 <= c < plan.n_workers for c in plan.assignments)


def test_indegree_matches_successors(plan):
    indeg = plan.indegree()
    assert len(indeg) == plan.n_tasks
    assert sum(indeg) == plan.n_edges()
    # fresh list each call — executors consume it destructively
    other = plan.indegree()
    other[0] += 1
    assert plan.indegree()[0] == indeg[0]


def test_validate_accepts_own_graph(graph, plan):
    plan.validate(graph)  # does not raise


def test_validate_rejects_task_count_drift(graph, plan):
    other = build_cost_only(seq_len=8).graph
    with pytest.raises(ValueError, match="tasks"):
        plan.validate(other)


def test_validate_rejects_name_drift(graph, plan):
    plan.names[3] = "not-the-task"
    with pytest.raises(ValueError, match="mismatch at step 3"):
        plan.validate(graph)


def test_replay_scheduler_reads_the_plan(graph, plan):
    replay = ReplayScheduler(plan)
    for task in graph.tasks:
        replay.push(task)
    assert [replay.pop(0).tid for _ in plan.order] == plan.order
    assert replay.pop(0) is None

