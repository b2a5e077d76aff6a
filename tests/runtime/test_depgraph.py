"""Unit tests for OmpSs-style dependence derivation."""

import pytest

from repro.runtime.depgraph import TaskGraph
from repro.runtime.task import RegionSpace


def build(rs=None):
    return TaskGraph(), rs or RegionSpace()


def test_raw_dependence():
    g, rs = build()
    a = rs.get("a", 1)
    w = g.add_task("w", outs=[a])
    r = g.add_task("r", ins=[a])
    assert g.successors[w.tid] == [r.tid]
    assert g.indegree[r.tid] == 1


def test_war_dependence():
    g, rs = build()
    a = rs.get("a", 1)
    g.add_task("init", outs=[a])
    r = g.add_task("r", ins=[a])
    w2 = g.add_task("w2", outs=[a])
    assert w2.tid in g.successors[r.tid]


def test_waw_dependence():
    g, rs = build()
    a = rs.get("a", 1)
    w1 = g.add_task("w1", outs=[a])
    w2 = g.add_task("w2", outs=[a])
    assert w2.tid in g.successors[w1.tid]


def test_inout_serializes_chain():
    g, rs = build()
    acc = rs.get("acc", 1)
    tasks = [g.add_task(f"t{i}", inouts=[acc]) for i in range(5)]
    for prev, nxt in zip(tasks, tasks[1:]):
        assert nxt.tid in g.successors[prev.tid]
        assert g.indegree[nxt.tid] == 1


def test_independent_tasks_have_no_edges():
    g, rs = build()
    g.add_task("a", outs=[rs.get("a", 1)])
    g.add_task("b", outs=[rs.get("b", 1)])
    assert g.num_edges() == 0
    assert len(g.roots()) == 2


def test_reader_after_new_write_depends_only_on_new_writer():
    g, rs = build()
    a = rs.get("a", 1)
    g.add_task("w1", outs=[a])
    g.add_task("r1", ins=[a])
    w2 = g.add_task("w2", outs=[a])
    r2 = g.add_task("r2", ins=[a])
    assert g.predecessors(r2.tid) == [w2.tid]


def test_two_readers_share_writer_no_mutual_edge():
    g, rs = build()
    a = rs.get("a", 1)
    w = g.add_task("w", outs=[a])
    r1 = g.add_task("r1", ins=[a])
    r2 = g.add_task("r2", ins=[a])
    assert set(g.successors[w.tid]) == {r1.tid, r2.tid}
    assert g.successors[r1.tid] == []


def test_diamond_graph_wavefront_and_critical_path():
    g, rs = build()
    a, b, c = rs.get("a", 1), rs.get("b", 1), rs.get("c", 1)
    g.add_task("src", outs=[a])
    g.add_task("l", ins=[a], outs=[b])
    g.add_task("r", ins=[a], outs=[c])
    g.add_task("sink", ins=[b, c])
    assert g.max_wavefront() == 2
    assert g.critical_path_length() == 3


def test_is_topological_order():
    g, rs = build()
    a = rs.get("a", 1)
    t0 = g.add_task("t0", outs=[a])
    t1 = g.add_task("t1", ins=[a])
    assert g.is_topological_order([t0.tid, t1.tid])
    assert not g.is_topological_order([t1.tid, t0.tid])
    assert not g.is_topological_order([t0.tid])  # incomplete


def test_validate_acyclic():
    g, rs = build()
    a = rs.get("a", 1)
    g.add_task("w", outs=[a])
    g.add_task("r", ins=[a])
    assert g.validate_acyclic()


def test_barrier_gates_everything():
    g, rs = build()
    a, b = rs.get("a", 1), rs.get("b", 1)
    t1 = g.add_task("t1", outs=[a])
    t2 = g.add_task("t2", outs=[b])
    bar = g.barrier()
    t3 = g.add_task("t3", outs=[rs.get("c", 1)])
    # barrier depends on both sinks, t3 depends on barrier
    assert bar.tid in g.successors[t1.tid]
    assert bar.tid in g.successors[t2.tid]
    assert t3.tid in g.successors[bar.tid]


def test_barrier_only_depends_on_sinks():
    g, rs = build()
    a = rs.get("a", 1)
    t1 = g.add_task("t1", outs=[a])
    t2 = g.add_task("t2", ins=[a], outs=[rs.get("b", 1)])  # t1 -> t2
    bar = g.barrier()
    assert bar.tid in g.successors[t2.tid]
    assert bar.tid not in g.successors[t1.tid]  # t1 is not a sink


def test_sequential_barriers():
    g, rs = build()
    g.add_task("t1", outs=[rs.get("a", 1)])
    b1 = g.barrier("b1")
    t2 = g.add_task("t2", outs=[rs.get("b", 1)])
    b2 = g.barrier("b2")
    assert t2.tid in g.successors[b1.tid]
    assert b2.tid in g.successors[t2.tid]
    assert g.validate_acyclic()


def test_critical_path_weighted():
    g, rs = build()
    a = rs.get("a", 1)
    g.add_task("w", outs=[a], flops=10)
    g.add_task("r", ins=[a], flops=5)
    assert g.critical_path_length(weight=lambda t: t.flops) == 15.0
