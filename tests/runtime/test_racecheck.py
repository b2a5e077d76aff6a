"""Unit tests for the race detector (tracking, diffing, ordering).

The toy-build tests exercise the checker through the same duck-typed
``region_storage``/``map_storage`` protocol the real
:class:`~repro.core.graph_builder.GraphBuildResult` implements, with
hand-written bugs the checker must catch.  The BLSTM tests then assert
soundness on the real builder: a clean graph produces zero findings, and
deleting *any* order-defining declared dependence is flagged.
"""

import numpy as np
import pytest

from repro.analysis.verify import order_defining_edges
from repro.core import state
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime import racecheck
from repro.runtime.depgraph import TaskGraph
from repro.runtime.racecheck import (
    AccessRecorder,
    TrackedArray,
    check_build,
    observe_accesses,
    ordering_findings,
)
from repro.runtime.task import Region, RegionSpace, Task
from tests.conftest import make_batch, small_spec

byte_bounds = racecheck.byte_bounds


# ---------------------------------------------------------------------------
# TrackedArray instrumentation
# ---------------------------------------------------------------------------


@pytest.fixture
def recorder():
    rec = AccessRecorder()
    racecheck._RECORDER = rec
    yield rec
    racecheck._RECORDER = None


def _tracked(shape=(4,), dtype=np.float64):
    return np.zeros(shape, dtype=dtype).view(TrackedArray)


def test_ufunc_logs_reads_and_result_is_plain(recorder):
    a = _tracked()
    out = a + 1.0
    assert byte_bounds(a) in recorder.reads
    assert type(out) is np.ndarray  # delegation strips the subclass


def test_ufunc_out_logs_write(recorder):
    a, b = _tracked(), _tracked()
    np.add(a, 1.0, out=b)
    assert byte_bounds(b) in recorder.writes


def test_inplace_add_logs_write(recorder):
    a = _tracked()
    a += 2.0
    assert byte_bounds(a) in recorder.writes


def test_setitem_logs_subslice_not_whole_array(recorder):
    a = _tracked((8, 4))
    a[4:] = 1.0
    sub = byte_bounds(np.asarray(a)[4:])
    assert sub in recorder.writes
    assert byte_bounds(a) not in recorder.writes


def test_sliced_inplace_add_logs_only_the_rows(recorder):
    a = _tracked((8, 4))
    a[2:] += np.ones((6, 4))
    assert byte_bounds(np.asarray(a)[2:]) in recorder.writes
    assert byte_bounds(a) not in recorder.writes


def test_array_function_logs_concatenate_inputs(recorder):
    a, b = _tracked(), _tracked()
    out = np.concatenate([a, b])
    assert byte_bounds(a) in recorder.reads
    assert byte_bounds(b) in recorder.reads
    assert type(out) is np.ndarray


def test_matmul_logs_both_operands(recorder):
    a, b = _tracked((3, 4)), _tracked((4, 2))
    a @ b
    assert byte_bounds(a) in recorder.reads
    assert byte_bounds(b) in recorder.reads


def test_reshape_of_a_strided_view_logs_its_read(recorder):
    """Reshaping a strided slice copies inside NumPy, where no ufunc or
    array function sees the read; a reshape that is a view reads nothing."""
    block = _tracked((3, 4, 2))
    view = block[:, :2]
    flat = view.reshape(-1, 2)
    assert not np.may_share_memory(np.asarray(flat), np.asarray(block))
    assert set(racecheck._extents(view)) <= recorder.reads
    recorder.reads.clear()
    block.reshape(-1, 2)
    assert not recorder.reads


# ---------------------------------------------------------------------------
# Toy builds: the duck-typed observation protocol with planted bugs
# ---------------------------------------------------------------------------


class ToyBuild:
    """Minimal GraphBuildResult stand-in: named 1-D buffers as regions."""

    functional = True

    def __init__(self, **buffers):
        self.graph = TaskGraph()
        self.regions = RegionSpace()
        self.store = {k: np.asarray(v, dtype=np.float64) for k, v in buffers.items()}
        for key, arr in self.store.items():
            self.regions.get(key, arr.nbytes)

    def r(self, key) -> Region:
        return self.regions.get(key)

    def region_storage(self, key):
        return (self.store[key],)

    def map_storage(self, fn):
        for key, arr in self.store.items():
            self.store[key] = fn(arr)


def test_clean_toy_graph_has_no_findings():
    tb = ToyBuild(a=[1.0, 2.0], b=[0.0, 0.0])

    def copy_a_to_b():
        np.add(tb.store["a"], 0.0, out=tb.store["b"])

    tb.graph.add(Task("copy", copy_a_to_b, ins=[tb.r("a")], outs=[tb.r("b")]))
    report = check_build(tb)
    assert report.ok, report.summary()
    assert report.observed_tasks == 1


def test_undeclared_read_is_flagged():
    tb = ToyBuild(a=[1.0, 2.0], b=[0.0, 0.0], c=[3.0, 4.0])

    def sneaky():
        # declared: read a, write b — but actually also reads c
        np.add(tb.store["a"], tb.store["c"], out=tb.store["b"])

    tb.graph.add(Task("sneaky", sneaky, ins=[tb.r("a")], outs=[tb.r("b")]))
    report = check_build(tb)
    kinds = {(f.kind, f.region) for f in report.findings}
    assert ("undeclared_read", "'c'") in kinds


def test_undeclared_write_via_out_is_flagged():
    tb = ToyBuild(a=[1.0, 2.0], b=[0.0, 0.0])

    def sneaky():
        np.add(tb.store["a"], 1.0, out=tb.store["b"])  # b never declared

    tb.graph.add(Task("sneaky", sneaky, ins=[tb.r("a")]))
    report = check_build(tb)
    assert any(
        f.kind == "undeclared_write" and f.region == "'b'" for f in report.findings
    )


def test_undeclared_rebind_write_is_flagged():
    tb = ToyBuild(a=[1.0, 2.0], b=[0.0, 0.0])

    def rebind():
        tb.store["b"] = tb.store["a"] * 2.0  # fresh buffer, b not declared out

    tb.graph.add(Task("rebind", rebind, ins=[tb.r("a")]))
    report = check_build(tb)
    assert any(
        f.kind == "undeclared_write" and f.region == "'b'" and "rebound" in f.detail
        for f in report.findings
    )


def test_declared_rebind_write_is_still_flagged():
    """Regions resolve once, so a rebind leaves them naming bytes the slot
    no longer holds: declared or not, it is a finding."""
    tb = ToyBuild(a=[1.0, 2.0], b=[0.0, 0.0])

    def rebind():
        tb.store["b"] = tb.store["a"] * 2.0

    tb.graph.add(Task("rebind", rebind, ins=[tb.r("a")], outs=[tb.r("b")]))
    (finding,) = check_build(tb).findings
    assert (finding.kind, finding.task, finding.region) == ("undeclared_write", "rebind", "'b'")


def test_observation_restores_plain_arrays():
    tb = ToyBuild(a=[1.0])
    tb.graph.add(Task("noop", lambda: None, ins=[tb.r("a")]))
    observe_accesses(tb)
    assert type(tb.store["a"]) is np.ndarray


def test_aliasing_region_covers_access():
    # two region keys resolving to the SAME buffer (like cache.h_prev
    # aliasing h[t-1]): declaring either one must cover the access
    buf = np.zeros(4)
    tb = ToyBuild()
    tb.store = {"h": buf, "alias": buf}
    tb.regions.get("h", buf.nbytes)
    tb.regions.get("alias", buf.nbytes)

    def reader():
        float(np.sum(tb.store["alias"]))

    tb.graph.add(Task("reader", reader, ins=[tb.r("h")]))
    assert check_build(tb).ok


# ---------------------------------------------------------------------------
# Ordering audit
# ---------------------------------------------------------------------------


def _two_writer_graph():
    graph = TaskGraph()
    space = RegionSpace()
    r = space.get("shared", 64)
    t0 = graph.add(Task("w0", None, outs=[r]))
    t1 = graph.add(Task("w1", None, inouts=[r]))
    return graph, t0, t1


def test_declared_conflicts_are_ordered_by_construction():
    graph, _, _ = _two_writer_graph()
    findings, pairs = ordering_findings(graph)
    assert findings == [] and pairs == 1


def test_severed_edge_is_reported_as_unordered_conflict():
    graph, t0, t1 = _two_writer_graph()
    severed = [[] for _ in graph.tasks]
    findings, _ = ordering_findings(graph, successors=severed)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "unordered_conflict"
    assert {f.tid, f.other_tid} == {t0.tid, t1.tid}
    assert f.region == "'shared'"


def test_order_defining_excludes_transitively_redundant_edges():
    graph = TaskGraph()
    space = RegionSpace()
    r = space.get("x", 8)
    a = graph.add(Task("a", None, outs=[r]))
    b = graph.add(Task("b", None, inouts=[r]))
    c = graph.add(Task("c", None, inouts=[r]))  # edges a->b->c plus a->c? no:
    # sequential inout chain gives a->b and b->c only; build a redundant
    # edge via a reader of a that c also orders after
    edges = order_defining_edges(graph)
    assert (a.tid, b.tid) in edges and (b.tid, c.tid) in edges
    assert (a.tid, c.tid) not in edges  # not even an edge, let alone order-defining


# ---------------------------------------------------------------------------
# Real BLSTM graphs: clean pass + exhaustive mutation detection
# ---------------------------------------------------------------------------


def _blstm_build(**kw):
    spec = small_spec(num_layers=2)
    x, labels = make_batch(spec)
    params = BRNNParams.initialize(spec, seed=1)
    return build_brnn_graph(
        spec, x=x, labels=labels, params=params, training=True, mbs=2, lr=0.05, **kw
    )


def test_blstm_train_graph_is_race_free():
    result = _blstm_build()
    findings, pairs = ordering_findings(result.graph)
    assert findings == [] and pairs > 100
    report = check_build(result)
    assert report.ok, report.summary()
    assert report.observed_tasks > 100


@pytest.mark.parametrize("kind", ["h", "acts"])
def test_a_payload_that_rebinds_a_block_is_reported(kind):
    """The identity check is the safety net behind resolving once: a
    hand-made payload that leaves a layer block rebound is reported, naming
    the task and the regions over the block it replaced."""
    result = _blstm_build()
    victim = next(t for t in result.graph if t.name == "fwd[0]L0s0")
    run = victim.fn

    def rebind():
        run()
        grid = getattr(result.chunks[0], kind)
        grid[0] = grid[0].copy()

    victim.fn = rebind
    hits = [f for f in check_build(result).findings if "rebound" in f.detail]
    assert hits and all((f.kind, f.task) == ("undeclared_write", "fwd[0]L0s0") for f in hits)
    assert repr((kind.replace("acts", "cache"), 0, 0, "fwd", 0)) in {f.region for f in hits}


def test_a_strided_input_read_one_slot_over_is_reported(monkeypatch):
    """With two chunks a chunk's ``x`` is a strided view of the batch, which
    a hoisted layer's ``proj``/``projBwd`` tasks reshape (a copy inside
    NumPy): with ``x`` resolved one slot over, every task that declares an
    ``x`` key reads undeclared bytes, and each is reported."""
    entry = state.STORAGE["x"]

    def shifted(key, T, address=entry.address):
        where = address(key, T)
        return where[:-1] + ((where[-1] + 1) % T,)

    monkeypatch.setitem(state.STORAGE, "x", entry._replace(address=shifted))
    result = _blstm_build(fused_input_projection=[True, False], proj_block=2)
    assert not result.chunks[1].x.flags.c_contiguous
    declaring = {t.name for t in result.graph if any(r.key[0] == "x" for r in t.regions())}
    assert any(name.startswith("proj[") for name in declaring)
    findings = check_build(result).findings
    assert {f.task for f in findings if f.kind.startswith("undeclared")} >= declaring


def test_every_order_defining_dependence_deletion_is_detected():
    """Soundness: no single declared dependence is dead weight the checker
    would miss.  Deletes each order-defining conflicting edge in turn and
    requires the ordering audit to flag exactly that pair."""
    graph = _blstm_build().graph
    edges = order_defining_edges(graph)
    assert len(edges) > 100  # the recurrent chains alone give ~2*T*L*mbs
    for a, b in edges:
        severed = [list(s) for s in graph.successors]
        severed[a].remove(b)
        findings, _ = ordering_findings(graph, successors=severed)
        assert any(
            {f.tid, f.other_tid} == {a, b} for f in findings
        ), f"deleting declared edge {graph.tasks[a].name} -> {graph.tasks[b].name} was not detected"


def test_report_json_shape():
    report = check_build(_blstm_build())
    data = report.to_dict()
    assert data["ok"] is True
    assert data["n_tasks"] == report.n_tasks
    assert data["findings"] == []
