"""Adversarial properties of the symbolic dependence verifier.

Three mutation families over one BLSTM train graph:

* **exhaustive edge drop** — delete *every* order-defining declared edge
  in turn; the ordering audit must flag exactly the deleted endpoints
  each time (the per-edge generalization of the certificate's seeded
  ``drop_edge`` mutation);
* **region shrink** (hypothesis) — shrink any declared region one byte
  below its kernel footprint; the coverage proof must fail naming the
  region and an offending task pair;
* **write widen** (hypothesis) — widen any task's kernel write one byte
  past its declaration; the verifier must produce a finding anchored at
  that task and region (a ``symbolic_race`` when the spilled byte lands
  in an unordered neighbour's storage, ``footprint_uncovered``
  otherwise).

Together these pin the verifier's sensitivity: a certificate can only be
produced by graphs where none of these defects exist.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verify import (
    Family,
    _instance_kwargs,
    build_family_instance,
    order_defining_edges,
    probe_edge,
    verify_build,
)

SEQ_LEN = 4
_FAMILY = Family("lstm", "many_to_one", True, "off")


@pytest.fixture(scope="module")
def blstm_train():
    return build_family_instance(
        _FAMILY, _instance_kwargs(_FAMILY, SEQ_LEN, 2, 2)
    )


_RESULT = build_family_instance(_FAMILY, _instance_kwargs(_FAMILY, SEQ_LEN, 2, 2))
_REGION_KEYS = sorted(
    (r.key for r in _RESULT.regions.regions() if r.nbytes > 0), key=repr
)
_WRITE_SITES = sorted(
    {
        (t.tid, r.key)
        for t in _RESULT.graph
        if t.kind != "barrier"
        for r in t.writes()
    },
    key=repr,
)


def test_every_order_defining_edge_drop_is_detected(blstm_train):
    """No declared ordering is redundant *and* none can silently vanish:
    each order-defining edge's deletion is flagged with its exact pair."""
    graph = blstm_train.graph
    edges = order_defining_edges(graph)
    assert edges, "BLSTM train graph has no order-defining edges?"
    missed = []
    for edge in edges:
        probe = probe_edge(graph, edge)
        if not probe["detected"]:
            missed.append(probe["edge_names"])
    assert not missed, f"{len(missed)}/{len(edges)} edge drops undetected: {missed[:5]}"


def test_clean_graph_verifies_with_zero_findings(blstm_train):
    report = verify_build(blstm_train)
    assert report.ok, "\n".join(f.detail for f in report.findings)
    assert report.checked_tasks == sum(
        1 for t in blstm_train.graph if t.kind != "barrier"
    )
    assert report.pairs_proved > 0 and report.plan_edges_checked > 0


@given(key=st.sampled_from(_REGION_KEYS))
@settings(max_examples=40, deadline=None)
def test_shrinking_any_region_breaks_coverage(key):
    report = verify_build(_RESULT, check_plan=False, shrink_region=key)
    hits = [
        f
        for f in report.findings
        if f.kind in ("footprint_uncovered", "symbolic_race")
        and f.region == repr(key)
    ]
    assert hits, f"shrinking {key!r} by one byte went unnoticed"
    assert any(f.task and f.other for f in hits), (
        f"no offending task pair attributed for shrunk region {key!r}"
    )


@given(site=st.sampled_from(_WRITE_SITES))
@settings(max_examples=40, deadline=None)
def test_widening_any_write_breaks_coverage(site):
    tid, key = site
    report = verify_build(_RESULT, check_plan=False, widen_write=(tid, key))
    writer = _RESULT.graph.tasks[tid].name
    hits = [
        f
        for f in report.findings
        if f.kind in ("footprint_uncovered", "symbolic_race")
        and f.region == repr(key)
        and f.task == writer
    ]
    assert hits, f"widening {writer}'s write to {key!r} went unnoticed"


def test_widened_boundary_write_is_a_symbolic_race():
    """The sharpest widen case: the last forward h slot write spills into
    the first *reverse* h slot — two chains with no path between them, so
    the verifier must call it a race and name the cross-direction pair."""
    key = ("h", 0, 0, "fwd", SEQ_LEN - 1)
    writer_tid = next(
        t.tid for t in _RESULT.graph if any(r.key == key for r in t.outs)
    )
    report = verify_build(_RESULT, check_plan=False, widen_write=(writer_tid, key))
    races = [f for f in report.findings if f.kind == "symbolic_race"]
    assert races, "cross-direction spill not classified as a race"
    assert any("rev" in f.other for f in races), (
        f"race partner should be on the reverse chain: "
        f"{[(f.task, f.other) for f in races]}"
    )
