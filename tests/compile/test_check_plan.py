"""check_plan / replay_plan: the compiled-plan safety audit.

Replay safety rests on indegree gating over the plan's reduced edge set:
a declared dependence is enforced iff the closure of ``plan.successors``
covers it.  These tests prove the audit catches every way a plan can go
wrong — and, via the mutation regression, that a plan with one reduced
(order-defining) edge deleted is *flagged*, not silently replayed.
"""

import pytest

from repro.compile import CompiledPlan, compile_graph
from repro.runtime.racecheck import RaceError, check_plan, replay_plan
from tests.compile.conftest import build_cost_only, build_functional


@pytest.fixture
def graph():
    return build_cost_only().graph


@pytest.fixture
def plan(graph):
    return compile_graph(graph, n_workers=2)


def clone(plan):
    return CompiledPlan(
        order=list(plan.order),
        names=list(plan.names),
        assignments=list(plan.assignments),
        successors=[list(s) for s in plan.successors],
        n_workers=plan.n_workers,
        meta=dict(plan.meta),
    )


def test_compiled_plan_passes(graph, plan):
    report = check_plan(graph, plan)
    assert report.ok, report.summary()
    # every declared edge was audited for closure cover
    assert report.plan_edges_checked == graph.num_edges()


def test_structure_mismatch_on_foreign_graph(plan):
    other = build_cost_only(seq_len=8).graph
    report = check_plan(other, plan)
    assert not report.ok
    assert report.findings[0].kind == "plan_structure_mismatch"


def test_order_violation_flagged(graph, plan):
    bad = clone(plan)
    # swap an edge's endpoints in the release order: successor before
    # predecessor along a plan edge
    a = next(t for t in range(len(graph)) if bad.successors[t])
    b = bad.successors[a][0]
    ia, ib = bad.order.index(a), bad.order.index(b)
    bad.order[ia], bad.order[ib] = bad.order[ib], bad.order[ia]
    bad.names[ia], bad.names[ib] = bad.names[ib], bad.names[ia]
    report = check_plan(graph, bad)
    assert not report.ok
    assert any(f.kind == "plan_order_violation" for f in report.findings)


def test_mutated_plan_dependence_flagged(graph, plan):
    """The regression the satellite demands: drop one reduced edge.

    Every reduced edge is order-defining (that is what transitive
    reduction means), so its deletion leaves a declared dependence
    uncovered and must be reported.
    """
    bad = clone(plan)
    a = next(t for t in range(len(graph)) if bad.successors[t])
    bad.successors[a].pop(0)
    report = check_plan(graph, bad)
    assert not report.ok
    kinds = {f.kind for f in report.findings}
    assert "plan_dependence_violation" in kinds


def test_unknown_tid_in_edges_flagged(graph, plan):
    bad = clone(plan)
    bad.successors[0].append(len(graph) + 7)
    report = check_plan(graph, bad)
    assert not report.ok
    assert report.findings[0].kind == "plan_structure_mismatch"


def test_replay_plan_refuses_mutated_plan():
    build = build_functional()
    plan = compile_graph(build.graph, n_workers=2)
    bad = clone(plan)
    a = next(t for t in range(len(build.graph)) if bad.successors[t])
    bad.successors[a].pop(0)
    with pytest.raises(RaceError) as exc:
        replay_plan(build.graph, bad, n_workers=2)
    assert not exc.value.report.ok


def test_replay_plan_executes_clean_plan():
    build = build_functional()
    plan = compile_graph(build.graph, n_workers=2)
    trace = replay_plan(build.graph, plan, n_workers=2)
    assert len(trace.records) == len(build.graph)


def test_describe_mentions_kind(graph, plan):
    bad = clone(plan)
    a = next(t for t in range(len(graph)) if bad.successors[t])
    bad.successors[a].pop(0)
    report = check_plan(graph, bad)
    text = report.findings[0].describe()
    assert "plan_dependence_violation" in text
