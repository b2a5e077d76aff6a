"""Graph-level dependence checks and the parallelism metrics.

The minimality obligation of the dependence proof on handcrafted graphs
(what it flags and what it exempts), the proof's identity and fidelity
checks on built ones, and the metrics of a declared graph: transitive
reduction, width, spans and serialization debt.
"""

import pytest

from repro.analysis.parallelism import dataflow_successors, parallelism_metrics
from repro.analysis.verify import minimality_findings, verify_build
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.runtime.depgraph import (
    TaskGraph,
    longest_path,
    transitive_reduction,
    wavefront_width,
)
from repro.runtime.task import Region, RegionSpace


def _graph():
    return TaskGraph(), RegionSpace()


# -- minimality on handcrafted graphs --------------------------------------


def _kinds(graph):
    return [(f.kind, f.task) for f in minimality_findings(graph)]


def test_clean_chain_lints_ok():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    b = rs.get(("b",), 8)
    g.add_task("w1", None, outs=[a])
    g.add_task("t", None, ins=[a], outs=[b])
    g.add_task("r", None, ins=[b])
    assert minimality_findings(g) == []


def test_cycle_detected_via_successor_override():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    g.add_task("w", None, outs=[a])
    g.add_task("r", None, ins=[a])
    assert g.validate_acyclic()
    # TaskGraph.add cannot create a cycle; inject a back edge by hand.
    g.successors[1].append(0)
    g.indegree[0] += 1
    assert not g.validate_acyclic()


def test_orphan_task_flagged():
    """A task added around the builder's ``_add`` declares nothing and
    carries no family: the proof's fidelity obligation names it."""
    built = _blstm_build()
    built.graph.add_task("lost", None)
    findings = verify_build(built).findings
    assert [(f.kind, f.task) for f in findings] == [("unknown_family", "lost")]


def test_single_task_graph_is_not_an_orphan():
    g, rs = _graph()
    g.add_task("only", None, outs=[rs.get(("a",), 8)])
    assert minimality_findings(g) == []


def test_uninitialized_read_flagged():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    g.add_task("early_reader", None, ins=[a])
    g.add_task("late_writer", None, outs=[a])
    assert _kinds(g) == [("uninitialized_read", "early_reader")]


def test_external_input_read_is_not_uninitialized():
    # a region the graph never produces (external input) may be read freely
    g, rs = _graph()
    x = rs.get(("x",), 8)
    y = rs.get(("y",), 8)
    g.add_task("r1", None, ins=[x], outs=[y])
    g.add_task("r2", None, ins=[x, y])
    assert minimality_findings(g) == []


def test_dead_write_flagged_and_terminal_write_exempt():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    g.add_task("dead", None, outs=[a])       # overwritten before any read
    g.add_task("live", None, outs=[a])
    g.add_task("reader", None, ins=[a])
    g.add_task("final", None, outs=[a])      # terminal write: graph output
    assert _kinds(g) == [("dead_write", "dead")]


def test_sole_accessor_write_is_metric_not_finding():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    b = rs.get(("b",), 8)
    g.add_task("w", None, outs=[a, b])
    g.add_task("r", None, ins=[a])
    assert minimality_findings(g) == []  # b: written once, never touched again
    assert parallelism_metrics(g)["write_only_regions"] == 1


def test_zero_byte_token_exempt_from_dataflow_rules():
    g, rs = _graph()
    tok = rs.get(("serial",), 0)
    g.add_task("t1", None, inouts=[tok])
    g.add_task("t2", None, inouts=[tok])
    assert minimality_findings(g) == []


def test_duplicate_declaration_flagged():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    g.add_task("dup", None, ins=[a], outs=[a])
    findings = minimality_findings(g)
    assert [(f.kind, f.task, f.region) for f in findings] == [
        ("duplicate_declaration", "dup", "('a',)")
    ]


def test_aliased_region_key_flagged():
    """A distinct Region object under an interned key: dependences match
    on identity, so the proof's fidelity obligation names task and key."""
    built = _blstm_build()
    victim = next(t for t in built.graph.tasks if t.name == "loss[0]s0")
    victim.ins = tuple(Region(r.key, r.nbytes) for r in victim.ins)
    victim._regions = victim._region_ids = None  # drop the cached views
    findings = verify_build(built).findings
    assert [(f.kind, f.task, f.region) for f in findings] == [
        ("aliased_region_key", "loss[0]s0", repr(("logits", 0, 0)))
    ]


# -- transitive reduction / span helpers -----------------------------------


def test_transitive_reduction_diamond():
    # 0→1, 0→2, 1→3, 2→3 plus the redundant shortcut 0→3
    succ = [[1, 2, 3], [3], [3], []]
    reduced, redundant = transitive_reduction(succ)
    assert redundant == [(0, 3)]
    assert reduced == [[1, 2], [3], [3], []]


def test_longest_path_and_width():
    succ = [[1, 2], [3], [3], []]
    assert longest_path(succ, [1.0] * 4) == 3.0     # 0→1→3
    assert longest_path(succ, [1.0, 5.0, 1.0, 1.0]) == 7.0
    assert wavefront_width(succ) == 2                # {1, 2} at level 1


def test_graph_redundant_edges_method():
    g, rs = _graph()
    a = rs.get(("a",), 8)
    g.add_task("w", None, outs=[a])
    g.add_task("r1", None, ins=[a])
    g.add_task("rw", None, inouts=[a])  # RAW on w (redundant via r1) + WAR on r1
    assert (0, 2) in g.redundant_edges()


# -- over-declarations on real BLSTM graphs --------------------------------


def _blstm_build(**kw):
    spec = BRNNSpec(cell="lstm", input_size=6, hidden_size=5, num_layers=3,
                    merge_mode="sum", head="many_to_one", num_classes=4)
    kw.setdefault("training", True)
    return build_brnn_graph(spec, seq_len=4, batch=4, mbs=2, **kw)


def test_spurious_inout_flagged_with_exact_task_and_region():
    built = _blstm_build()
    victim = next(t for t in built.graph.tasks if t.name == "loss[0]s0")
    region = built.regions.get(("h", 0, 0, "fwd", 0), 0)
    victim.inouts = (*victim.inouts, region)
    findings = minimality_findings(built.graph)
    assert [(f.kind, f.task, f.region) for f in findings] == [
        ("unconsumed_inout_write", "loss[0]s0", repr(("h", 0, 0, "fwd", 0)))
    ]


def test_injected_dead_out_flagged_with_exact_task_and_region():
    built = _blstm_build()
    victim = next(t for t in built.graph.tasks if t.name == "fwd[0]L0s0")
    region = built.regions.get(("dlogits", 0, 0), 0)
    victim.outs = (*victim.outs, region)
    findings = minimality_findings(built.graph)
    assert [(f.kind, f.task, f.region) for f in findings] == [
        ("dead_write", "fwd[0]L0s0", repr(("dlogits", 0, 0)))
    ]
    assert victim.meta["site"] == "_build_forward_layer"  # declaration provenance


def test_unmutated_blstm_graph_is_clean():
    report = verify_build(_blstm_build())
    assert report.ok, report.summary()


# -- parallelism metrics ----------------------------------------------------


def test_barrier_free_graph_has_no_serialization_debt():
    metrics = parallelism_metrics(_blstm_build().graph)
    assert metrics["serialization_debt"] == pytest.approx(1.0)
    assert metrics["avg_parallelism"] <= metrics["width"] + 1e-9
    assert metrics["span_flops"] <= metrics["total_flops"]


def test_barriers_and_chunk_serialization_cost_debt():
    free = parallelism_metrics(_blstm_build().graph)
    barred = parallelism_metrics(_blstm_build(barrier_free=False).graph)
    bseq = parallelism_metrics(_blstm_build(serialize_chunks=True).graph)
    assert barred["serialization_debt"] > free["serialization_debt"]
    assert bseq["serialization_debt"] > 1.5  # chunk chains ≈ serial execution
    # debt comes from ordering, not from extra dataflow
    assert bseq["dataflow_span_tasks"] == free["dataflow_span_tasks"]


def test_dataflow_subgraph_drops_tokens_and_keeps_raw_edges():
    built = _blstm_build(serialize_chunks=True)
    flow = dataflow_successors(built.graph)
    declared = sum(len(s) for s in built.graph.successors)
    kept = sum(len(s) for s in flow)
    assert 0 < kept < declared
    # every dataflow edge is also a declared edge
    for a, succs in enumerate(flow):
        assert set(succs) <= set(built.graph.successors[a])


def test_provenance_site_present_on_builder_tasks():
    built = _blstm_build()
    sites = {t.meta.get("site") for t in built.graph.tasks if t.kind != "barrier"}
    assert "_build_forward_layer" in sites
    assert "_build_updates" in sites
    assert None not in sites
