"""Unit tests for Task / Region / RegionSpace."""

import pytest

from repro.runtime.task import INTERLEAVED_HOME, Region, RegionSpace, Task


def test_region_identity_by_key_in_space():
    rs = RegionSpace()
    a1 = rs.get(("h", 0, 1), 100)
    a2 = rs.get(("h", 0, 1))
    assert a1 is a2
    assert a1.nbytes == 100


def test_region_size_fixed_on_first_nonzero():
    rs = RegionSpace()
    r = rs.get("x")
    assert r.nbytes == 0
    rs.get("x", 64)
    assert r.nbytes == 64
    rs.get("x", 128)  # later sizes ignored
    assert r.nbytes == 64


def test_region_space_len_contains_total():
    rs = RegionSpace()
    rs.get("a", 10)
    rs.get("b", 20)
    assert len(rs) == 2
    assert "a" in rs and "c" not in rs
    assert sum(r.nbytes for r in rs.regions()) == 30


def test_region_streaming_flag():
    rs = RegionSpace()
    s = rs.get("stream", 10, streaming=True)
    n = rs.get("normal", 10)
    assert s.streaming and not n.streaming


def test_region_interleaved_home_sentinel():
    r = Region("w", 10)
    assert r.home is None
    r.home = INTERLEAVED_HOME
    assert r.home == INTERLEAVED_HOME


def test_task_reads_writes_views():
    a, b, c = Region("a", 1), Region("b", 2), Region("c", 4)
    t = Task("t", None, ins=[a], outs=[b], inouts=[c])
    assert t.reads() == (a, c)
    assert t.writes() == (b, c)
    assert set(t.regions()) == {a, b, c}


def test_task_working_set_deduplicates():
    a, b = Region("a", 10), Region("b", 5)
    t = Task("t", None, ins=[a, b], outs=[a], inouts=[b])
    assert t.working_set_bytes() == 15


def test_task_shares_data_with():
    a, b, c = Region("a", 1), Region("b", 1), Region("c", 1)
    t1 = Task("t1", None, ins=[a], outs=[b])
    t2 = Task("t2", None, ins=[b], outs=[c])
    t3 = Task("t3", None, ins=[c])
    assert t1.shares_data_with(t2)
    assert not t1.shares_data_with(t3)


def test_task_region_ids_cached_frozen():
    a = Region("a", 1)
    t = Task("t", None, ins=[a])
    ids1 = t.region_ids()
    ids2 = t.region_ids()
    assert ids1 is ids2
    assert id(a) in ids1


def test_task_run_executes_payload():
    hits = []
    t = Task("t", lambda: hits.append(1))
    t.run()
    assert hits == [1]


def test_task_run_none_payload_is_noop():
    Task("t", None).run()  # must not raise


def test_task_flops_and_meta():
    t = Task("t", None, flops=123.0, kind="cell", meta={"layer": 2})
    assert t.flops == 123.0
    assert t.kind == "cell"
    assert t.meta["layer"] == 2


def test_working_set_counts_a_region_a_later_task_grew():
    """A builder may size a shared region only at a later task; the memo is
    taken at the first ask, after the build, so it holds the grown size."""
    from repro.runtime.depgraph import TaskGraph

    rs, graph = RegionSpace(), TaskGraph()
    first = graph.add_task("first", ins=[rs.get("shared")], outs=[rs.get("a", 8)])
    graph.add_task("second", inouts=[rs.get("shared", 64)])
    assert first.working_set_bytes() == 72
    assert first.working_set_bytes() is first.working_set_bytes()


def test_two_runs_of_a_held_build_record_equal_working_sets():
    import numpy as np

    from repro.core.graph_builder import build_brnn_graph
    from repro.models.params import BRNNParams
    from repro.runtime.executor import ThreadedExecutor
    from tests.conftest import small_spec

    spec = small_spec()
    x = np.random.default_rng(0).standard_normal((4, 3, spec.input_size)).astype(np.float32)
    params = BRNNParams.initialize(spec, seed=0)
    build = build_brnn_graph(spec, x=x, params=params, training=False, wavefront_tile=1)
    runs = [ThreadedExecutor(2).run(build.graph).records for _ in range(2)]
    wss = [sorted((r.tid, r.wss_bytes) for r in records) for records in runs]
    assert wss[0] == wss[1] and len(wss[0]) == len(build.graph)
    assert all(size == build.graph.tasks[tid].working_set_bytes() > 0 for tid, size in wss[0])
