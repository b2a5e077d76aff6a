"""Plan-driven execution (``SimulatedExecutor.run(graph, plan=...)``; the
simulator is the one executor that replays a compiled plan) and the
threaded executor's replay of a recorded schedule."""

import numpy as np
import pytest

from repro.compile import compile_graph
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.scheduler import FIFOScheduler, RecordingScheduler, ReplayScheduler
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s
from tests.compile.conftest import build_cost_only, build_functional


def test_sim_replay_single_core_follows_plan_order():
    graph = build_cost_only().graph
    plan = compile_graph(graph)
    trace = SimulatedExecutor(xeon_8160_2s(), n_cores=1).run(graph, plan=plan)
    assert [r.tid for r in trace.records] == plan.order
    assert trace.scheduler == "replay"


@pytest.mark.usefixtures("real_threads")
def test_threaded_replay_matches_dynamic_bits():
    dynamic = build_functional()
    recording = RecordingScheduler(FIFOScheduler())
    ThreadedExecutor(2, recording).run(dynamic.graph)

    replayed = build_functional()
    ThreadedExecutor(2, ReplayScheduler(recording.record())).run(replayed.graph)

    for (name_a, a), (name_b, b) in zip(
        dynamic.params.arrays(), replayed.params.arrays()
    ):
        assert name_a == name_b
        np.testing.assert_array_equal(a, b)


def test_sim_replay_rejects_foreign_graph():
    plan = compile_graph(build_cost_only().graph)
    other = build_cost_only(seq_len=8).graph
    with pytest.raises(ValueError, match="tasks"):
        SimulatedExecutor(xeon_8160_2s(), n_cores=1).run(other, plan=plan)


def test_sim_replay_runs_cost_graph():
    graph = build_cost_only().graph
    plan = compile_graph(graph, n_workers=8)
    sim = SimulatedExecutor(xeon_8160_2s(), n_cores=8)
    trace = sim.run(graph, plan=plan)
    assert len(trace.records) == len(graph)
    assert trace.scheduler == "replay"
    assert trace.makespan > 0.0


def test_sim_replay_deterministic():
    graph = build_cost_only().graph
    plan = compile_graph(graph, n_workers=8)
    a = SimulatedExecutor(xeon_8160_2s(), n_cores=8).run(graph, plan=plan)
    b = SimulatedExecutor(xeon_8160_2s(), n_cores=8).run(graph, plan=plan)
    assert a.makespan == b.makespan
    assert [(r.tid, r.core, r.start) for r in a.records] == [
        (r.tid, r.core, r.start) for r in b.records
    ]


def test_sim_replay_respects_declared_dependences():
    graph = build_cost_only().graph
    plan = compile_graph(graph, n_workers=8)
    trace = SimulatedExecutor(xeon_8160_2s(), n_cores=8).run(graph, plan=plan)
    end_of = {r.tid: r.end for r in trace.records}
    start_of = {r.tid: r.start for r in trace.records}
    for a in range(len(graph)):
        for b in graph.successors[a]:
            assert start_of[b] >= end_of[a] - 1e-12, (
                f"declared dependence {a} -> {b} overlapped in replay"
            )


def test_plan_is_reusable_across_runs():
    # a plan compiled once serves every later batch of that shape
    graph = build_cost_only().graph
    plan = compile_graph(graph, n_workers=2)
    ex = SimulatedExecutor(xeon_8160_2s(), n_cores=2)
    for _ in range(3):
        trace = ex.run(graph, plan=plan)
        assert len(trace.records) == len(graph)
