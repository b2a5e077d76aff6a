"""The dependence proof end to end.

Positive direction: representative families (and their cutoff
instantiations) verify with zero findings, the size-isomorphism rebuild
holds, mutations are all detected with exact pairs, and the certificate
assembles with ``ok: true``.  Negative direction: tampering with a
built graph's access declarations or family stamps must surface as the
right finding kind — the verifier may never certify a graph it cannot
fully account for.  The mutation table at the end holds one seeded
mutation per defect class any dependence check has ever caught, and the
check that names it.
"""

import pytest

from repro.analysis.parallelism import parallelism_metrics
from repro.analysis.verify import (
    CERT_FORMAT,
    MUTATION_KINDS,
    Family,
    _CUTOFF_SHAPES,
    _instance_kwargs,
    _without_cache,
    build_certificate,
    build_family_functional,
    build_family_instance,
    cross_validate,
    full_family_matrix,
    verify_build,
    verify_family,
    verify_mutations,
)
from repro.compile import compile_graph
from repro.core.access_spec import FAMILIES
from repro.runtime.racecheck import DependenceFinding, check_build, check_plan
from repro.runtime.task import Region
from tests.conftest import RULE_BRANCH_SWEEP, build_functional

#: one family per cell type, crossing head/mode/tile/projection/pairing —
#: the smoke subset; the full matrix runs under ``make smoke-verify``
SMOKE_FAMILIES = [
    Family("lstm", "many_to_one", True, "off"),
    Family("gru", "many_to_many", True, "on", tiled=True),
    Family("lstm", "many_to_many", True, "on"),
    Family("gru", "many_to_one", False, "off", tiled=True),
    Family("lstm", "many_to_many", False, "off", tiled=True, paired=True),
    Family("gru", "many_to_one", True, "on", paired=True),
]


def _build(fam, seq_len=4, mbs=2, block=2):
    return build_family_instance(fam, _instance_kwargs(fam, seq_len, mbs, block))


# -- the family matrix -------------------------------------------------------


def test_full_family_matrix_spans_distinct_configs():
    """Tile x projection x pairing under every cell, head and pass."""
    fams = full_family_matrix()
    assert len({f.label() for f in fams}) == len(fams) == 2 * 2 * 2 * 2 * 2 * 2 == 64
    assert {f.cell for f in fams} == {"lstm", "gru"}
    assert {(f.tiled, f.fused_input_projection, f.paired) for f in fams} == {
        (tiled, proj, paired)
        for tiled in (False, True) for proj in ("off", "on") for paired in (False, True)
    }
    assert set(SMOKE_FAMILIES) <= set(fams)


@pytest.mark.parametrize("fam", SMOKE_FAMILIES, ids=lambda f: f.label())
def test_representative_families_verify_clean(fam):
    report = verify_build(_build(fam))
    assert report.ok, "\n".join(
        f"{f.kind}: {f.task} / {f.other} {f.region} {f.detail}"
        for f in report.findings
    )
    assert report.checked_tasks > 0
    assert report.pairs_proved > 0
    assert report.plan_edges_checked > 0


@pytest.mark.parametrize("case", RULE_BRANCH_SWEEP)
def test_rule_branch_builds_verify_clean(case):
    """``mul`` merges, per-layer barriers and B-Seq: the rule
    branches outside the certificate's family matrix."""
    report = verify_build(build_functional(**case))
    assert report.ok, "\n".join(
        f"{f.kind}: {f.task} / {f.other} {f.region} {f.detail}"
        for f in report.findings
    )
    assert report.checked_tasks > 0


def test_verify_family_certifies_instances_and_size_isomorphism():
    entry = verify_family(Family("lstm", "many_to_one", True, "on"))
    assert entry["ok"] is True
    assert entry["size_isomorphism"] is True
    assert len(entry["instances"]) == 2
    assert all(i["ok"] for i in entry["instances"])


# -- tampered graphs must not verify -----------------------------------------


def test_dropped_input_declaration_is_flagged():
    result = _build(SMOKE_FAMILIES[0])
    victim = next(t for t in result.graph if t.kind == "cell" and t.ins)
    victim.ins = victim.ins[:-1]
    victim._regions = victim._region_ids = None  # drop the cached views
    report = verify_build(result, check_plan=False)
    kinds = {f.kind for f in report.findings}
    assert "access_spec_mismatch" in kinds
    assert any(
        f.kind == "access_spec_mismatch" and f.task == victim.name
        for f in report.findings
    )


def test_unknown_family_stamp_is_flagged():
    result = _build(SMOKE_FAMILIES[0])
    victim = next(t for t in result.graph if t.kind == "cell")
    victim.meta["family"] = "cell@nowhere"
    report = verify_build(result, check_plan=False)
    assert any(
        f.kind == "unknown_family" and f.task == victim.name
        for f in report.findings
    )


# -- mutation self-tests -----------------------------------------------------


def test_all_four_seeded_mutations_detected_with_pairs():
    out = verify_mutations(seed=3)
    assert out["all_detected"] is True
    for kind in ("drop_edge", "shrink_region", "widen_write", "drop_plan_edge"):
        assert out[kind]["detected"] is True, kind
        assert len(out[kind]["pair"]) == 2 and all(out[kind]["pair"]), kind


def test_mutation_detection_is_seed_independent():
    for seed in (0, 1, 7):
        assert verify_mutations(seed=seed)["all_detected"] is True


# -- dynamic cross-validation ------------------------------------------------


def test_cross_validation_samples_run_clean():
    """Every family is observed at both cutoff shapes the proof covers."""
    out = cross_validate(SMOKE_FAMILIES)
    observed = [(e["family"], (e["seq_len"], e["mbs"], e["block"])) for e in out["entries"]]
    assert observed == [(f.label(), shape) for f in SMOKE_FAMILIES for shape in _CUTOFF_SHAPES]
    assert out["samples"] == len(SMOKE_FAMILIES) * len(_CUTOFF_SHAPES)
    assert out["ok"] is True
    assert all(e["findings"] == 0 for e in out["entries"])
    assert all(e["observed_tasks"] > 0 for e in out["entries"])


# -- the certificate ---------------------------------------------------------


def test_certificate_assembles_and_validates():
    cert = build_certificate(SMOKE_FAMILIES)
    assert cert["format"] == CERT_FORMAT
    assert cert["n_families"] == len(SMOKE_FAMILIES)
    assert cert["n_certified"] == len(SMOKE_FAMILIES)
    assert cert["mutations"]["all_detected"] is True
    assert cert["cross_validation"]["ok"] is True
    assert cert["ok"] is True
    labels = {e["label"] for e in cert["families"]}
    assert labels == {f.label() for f in SMOKE_FAMILIES}
    # the aggregates the ledger's `verify` bars read
    assert cert["n_distinct_labels"] == cert["n_size_isomorphic"] == len(SMOKE_FAMILIES)
    assert cert["min_pairs_proved"] > 0 and cert["min_plan_edges_checked"] > 0
    assert all(cert["mutations"][kind]["exact_pair"] for kind in MUTATION_KINDS)
    assert cert["cross_validation"]["samples"] == cert["n_instances"] == 2 * len(SMOKE_FAMILIES)
    assert cert["cross_validation"]["max_findings"] == 0
    assert cert["cross_validation"]["min_observed_tasks"] > 0
    for entry in cert["families"]:
        assert {"label", "cell", "instances", "size_isomorphism",
                "findings", "ok"} <= set(entry)


# -- the mutation table ------------------------------------------------------
#
# One row per defect class that graphlint, the over-declaration analyzer,
# racecheck, the closure lint or the certificate ever caught: the seeded
# mutation, the check that flags it, and the finding it must produce —
# kind, task, and the partner task or the region.  Mutations run on the certificate's
# representative build (BLSTM m2o train, T=4, mbs=2, per-step).

_REP = Family("lstm", "many_to_one", True, "off")
_LOGITS, _DLOGITS, _DMLAST = ("logits", 0, 0), ("dlogits", 0, 0), ("dmlast", 0, 0)
_H_LAST = ("h", 0, 0, "fwd", 3)


def _rep():
    return _build(_REP)


def _task(result, name):
    return next(t for t in result.graph if t.name == name)


def _redeclare(task, **decl):
    for mode, regions in decl.items():
        setattr(task, mode, tuple(regions))
    task._regions = task._region_ids = None  # drop the cached views


def _with_rule(monkeypatch, family, edit):
    """Patch one access rule of the table, so the build emits the edit."""
    rule = FAMILIES[family]
    monkeypatch.setitem(FAMILIES, family, lambda meta, ctx: edit(rule(meta, ctx)))


def _proof(result):
    return verify_build(result).findings


def _cycle(monkeypatch):
    """No check emits a cycle: ``TaskGraph.add`` only adds edges from
    earlier to later tasks, so no build has one; ``validate_acyclic`` is
    the oracle for a hand-made back edge."""
    graph = _rep().graph
    assert all(a < b for a, b in graph.edges())
    a, b = next(graph.edges())
    graph.successors[b].append(a)
    graph.indegree[a] += 1
    if graph.validate_acyclic():
        return []
    return [DependenceFinding("cycle", b, graph.tasks[b].name,
                              other_tid=a, other=graph.tasks[a].name)]


def _orphan(monkeypatch):  # a task whose declarations were all dropped
    result = _rep()
    _redeclare(_task(result, "loss[0]s0"), ins=(), outs=(), inouts=())
    return _proof(result)


def _renamed(key, name):
    """The same chunk and slot under another region family."""
    return (name,) + key[1:]


def _read_dlogits(d):  # the head's rule, reading its own chunk's loss output
    return d._replace(ins=d.ins + (_renamed(d.outs[0], "dlogits"),))


def _dead_dmlast(d):  # the loss's rule, writing what head_bwd overwrites
    return d._replace(outs=d.outs + (_renamed(d.outs[0], "dmlast"),))


def _uninitialized_read(monkeypatch):
    _with_rule(monkeypatch, "head@_build_head", _read_dlogits)
    return _proof(_rep())


def _dead_write(monkeypatch):
    _with_rule(monkeypatch, "loss@_build_head", _dead_dmlast)
    return _proof(_rep())


def _duplicate(monkeypatch):  # the loss lists the logits as in and out
    _with_rule(monkeypatch, "loss@_build_head",
               lambda d: d._replace(outs=d.outs + d.ins))
    return _proof(_rep())


def _aliased_write(monkeypatch):  # a writer declares a copy of the key
    result = _rep()
    writer = _task(result, "fwd[0]L0s3")
    _redeclare(writer, outs=[Region(r.key, r.nbytes) if r.key == _H_LAST else r
                             for r in writer.outs])
    return _proof(result)


def _unconsumed_inout(monkeypatch):  # a spurious inout added after the build
    result = _rep()
    loss = _task(result, "loss[0]s0")
    _redeclare(loss, inouts=loss.inouts + (result.regions.get(("h", 0, 0, "fwd", 0)),))
    return _proof(result)


def _unproduced_inout(monkeypatch):  # the head updates the loss's output in place
    _with_rule(monkeypatch, "head@_build_head",
               lambda d: d._replace(inouts=d.inouts + (_renamed(d.outs[0], "dlogits"),)))
    return _proof(_rep())


def _observed(name, **decl):
    """Drop declarations of a functional build's task; run it observed."""
    def mutate(monkeypatch):
        result = build_family_functional(_REP)
        _redeclare(_task(result, name), **decl)
        return check_build(result).findings
    return mutate


def _unordered(monkeypatch):  # the loss no longer waits for its logits
    result = _rep()
    head, loss = _task(result, "head[0]s0"), _task(result, "loss[0]s0")
    result.graph.successors[head.tid].remove(loss.tid)
    return _proof(result)


def _plan(edit):
    def mutate(monkeypatch):
        graph = _rep().graph
        return check_plan(graph, edit(graph, compile_graph(graph, n_workers=2))).findings
    return mutate


def _foreign_plan(graph, plan):
    return compile_graph(_build(_REP, seq_len=5).graph, n_workers=2)


def _swapped_plan(graph, plan):
    a = next(t for t in range(len(graph)) if plan.successors[t])
    ia, ib = plan.order.index(a), plan.order.index(plan.successors[a][0])
    plan.order[ia], plan.order[ib] = plan.order[ib], plan.order[ia]
    plan.names[ia], plan.names[ib] = plan.names[ib], plan.names[ia]
    return plan


def _dropped_plan_edge(graph, plan):
    return plan.without_edge(_task_tid(graph, "head[0]s0"), _task_tid(graph, "loss[0]s0"))


def _task_tid(graph, name):
    return next(t.tid for t in graph if t.name == name)


@pytest.fixture(scope="module")
def certificate_mutations():
    return verify_mutations(seed=0)


def _kind(kind):
    """A row read off :func:`verify_mutations`: its named pair as a finding."""
    def mutate(monkeypatch, out):
        entry = out[kind]
        assert entry["detected"], entry
        return [DependenceFinding(kind, task=entry["pair"][0], other=entry["pair"][1])]
    mutate.kind = kind
    return mutate


#: (defect class, check that names it, mutation, (kind, task, partner or region, detail))
MUTATION_TABLE = [
    ("cycle", "TaskGraph.validate_acyclic", _cycle,
     ("cycle", "fwd[0]L0s1", "fwd[0]L0s0", "")),
    ("orphan_task", "fidelity", _orphan,
     ("access_spec_mismatch", "loss[0]s0", "ins", "missing")),
    ("uninitialized_read", "minimality", _uninitialized_read,
     ("uninitialized_read", "head[0]s0", repr(_DLOGITS), "")),
    ("dead_write", "minimality", _dead_write,
     ("dead_write", "loss[0]s0", repr(_DMLAST), "")),
    ("duplicate_declaration", "minimality", _duplicate,
     ("duplicate_declaration", "loss[0]s0", repr(_LOGITS), "")),
    ("aliased_region_key", "fidelity", _aliased_write,
     ("aliased_region_key", "fwd[0]L0s3", repr(_H_LAST), "")),
    ("unconsumed_inout_write", "minimality", _unconsumed_inout,
     ("unconsumed_inout_write", "loss[0]s0", repr(("h", 0, 0, "fwd", 0)), "")),
    ("unproduced_inout_read", "minimality", _unproduced_inout,
     ("uninitialized_read", "head[0]s0", repr(_DLOGITS), "")),
    ("undeclared_read", "observation", _observed("loss[0]s0", ins=()),
     ("undeclared_read", "loss[0]s0", repr(_LOGITS), "touched bytes")),
    ("undeclared_write", "observation", _observed("headBwd[0]s0", inouts=()),
     ("undeclared_write", "headBwd[0]s0", repr(("gWout", 0)), "touched bytes")),
    ("rebind", "observation", _observed("fwd[0]L0s0", outs=()),
     ("undeclared_write", "fwd[0]L0s0", repr(("cache", 0, 0, "fwd", 0)), "rebound")),
    ("unordered_conflict", "ordering", _unordered,
     ("unordered_conflict", "head[0]s0", "loss[0]s0", "")),
    ("plan_structure_mismatch", "plan audit", _plan(_foreign_plan),
     ("plan_structure_mismatch", "<plan>", "", "")),
    ("plan_order_violation", "plan audit", _plan(_swapped_plan),
     ("plan_order_violation", "fwd[0]L0s0", "fwd[0]L0s1", "released")),
    ("plan_dependence_violation", "plan audit", _plan(_dropped_plan_edge),
     ("plan_dependence_violation", "head[0]s0", "loss[0]s0", "")),
    ("drop_edge", "ordering", _kind("drop_edge"),
     ("drop_edge", "fwdBwd[0]L0s0", "update.L0.fwd", "")),
    ("shrink_region", "storage", _kind("shrink_region"),
     ("shrink_region", "fwd[0]L0s3", "merge[0]L0t3", "")),
    ("widen_write", "storage", _kind("widen_write"),
     ("widen_write", "fwd[0]L0s3", "rev[0]L0s3", "")),
    ("drop_plan_edge", "plan closure", _kind("drop_plan_edge"),
     ("drop_plan_edge", "fwdBwd[1]L1s2", "revBwd[1]L1s1", "")),
    ("over_declare", "minimality", _kind("over_declare"),
     ("over_declare", "loss[0]s0", repr(_LOGITS), "")),
    ("alias_region", "fidelity", _kind("alias_region"),
     ("alias_region", "merge[0]L0t3", repr(_H_LAST), "")),
    ("undeclare", "observation", _kind("undeclare"),
     ("undeclare", "fwd[0]L0s0", repr(("cache", 0, 0, "fwd", 0)), "")),
]


@pytest.mark.parametrize(
    "mutate,expected", [(row[2], row[3]) for row in MUTATION_TABLE],
    ids=[f"{cls}-{check}" for cls, check, _, _ in MUTATION_TABLE],
)
def test_mutation_table(mutate, expected, monkeypatch, certificate_mutations):
    """Each defect class is flagged by its check, naming the exact task
    and its partner task (or region)."""
    if hasattr(mutate, "kind"):
        findings = mutate(monkeypatch, certificate_mutations)
    else:
        findings = mutate(monkeypatch)
    kind, task, partner, detail = expected
    named = [
        f for f in findings
        if (f.kind, f.task, f.other or f.region) == (kind, task, partner)
        and detail in f.detail
    ]
    assert named, [(f.kind, f.task, f.other or f.region) for f in findings]


def test_the_table_covers_every_certificate_kind():
    assert {row[0] for row in MUTATION_TABLE} >= set(MUTATION_KINDS)


def test_a_write_dropped_from_the_table_passes_the_static_proof(monkeypatch):
    """Why ``undeclare`` is the observed audit's row: the build follows the
    table, so fidelity, coverage, ordering and minimality all hold."""
    _with_rule(monkeypatch, "cell@_build_forward_layer", _without_cache)
    mutant = _rep()
    assert not any(r.key[0] == "cache" for t in mutant.graph if t.kind == "cell" for r in t.outs)
    assert verify_build(mutant).ok


def test_table_over_declarations_leave_serialization_debt_unchanged(monkeypatch):
    """Why the metrics cannot stand in for minimality: the table's spurious
    ``inout`` and dead ``out`` add no edge the dataflow lacks."""
    clean = parallelism_metrics(_rep().graph)["serialization_debt"]
    inout = lambda d: d._replace(ins=d.ins[1:], inouts=d.inouts + d.ins[:1])
    for edit in (inout, _dead_dmlast):
        with monkeypatch.context() as patch:
            _with_rule(patch, "loss@_build_head", edit)
            mutant = _rep()
        assert parallelism_metrics(mutant.graph)["serialization_debt"] == clean
        assert not verify_build(mutant).ok
