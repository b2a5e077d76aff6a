"""The symbolic dependence verifier end to end.

Positive direction: representative families (and their cutoff
instantiations) verify with zero findings, the size-isomorphism rebuild
holds, mutations are all detected with exact pairs, and the certificate
assembles with ``ok: true``.  Negative direction: tampering with a
built graph's access declarations or family stamps must surface as the
right finding kind — the verifier may never certify a graph it cannot
fully account for.
"""

import pytest

from repro.analysis.verify import (
    CERT_FORMAT,
    MUTATION_KINDS,
    Family,
    _instance_kwargs,
    build_certificate,
    build_family_instance,
    cross_validate,
    full_family_matrix,
    verify_build,
    verify_family,
    verify_mutations,
)
from tests.conftest import RULE_BRANCH_SWEEP, build_functional

#: one family per cell type, crossing head/mode/fusion/tile/projection —
#: the smoke subset; the full matrix runs under ``make smoke-verify``
SMOKE_FAMILIES = [
    Family("lstm", "many_to_one", True, "off", "off"),
    Family("gru", "many_to_many", True, "gates", "on", tiled=True),
    Family("rnn", "many_to_many", False, "gates", "on"),
    Family("lstm", "many_to_many", True, "gates", "on"),
    Family("gru", "many_to_one", False, "off", "off", tiled=True),
    Family("rnn", "many_to_one", True, "gates", "off", tiled=True),
]


def _build(fam, seq_len=4, mbs=2, block=2):
    return build_family_instance(fam, _instance_kwargs(fam, seq_len, mbs, block))


# -- the family matrix -------------------------------------------------------


def test_full_family_matrix_spans_distinct_configs():
    """Kernel x tile x projection under every cell, head and pass, less the
    product that builds another family's graph: ``off`` never hoists."""
    fams = full_family_matrix()
    assert len({f.label() for f in fams}) == len(fams) == 3 * 2 * 2 * (2 * 2 * 2 - 2)
    assert {f.cell for f in fams} == {"lstm", "gru", "rnn"}
    assert {(f.fusion, f.tiled, f.fused_input_projection) for f in fams} == {
        ("off", False, "off"), ("off", True, "off"),
        ("gates", False, "off"), ("gates", False, "on"),
        ("gates", True, "off"), ("gates", True, "on"),
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
    """``mul`` merges, momentum, per-layer barriers and B-Seq: the rule
    branches outside the certificate's family matrix."""
    report = verify_build(build_functional(**case))
    assert report.ok, "\n".join(
        f"{f.kind}: {f.task} / {f.other} {f.region} {f.detail}"
        for f in report.findings
    )
    assert report.checked_tasks > 0


def test_verify_family_certifies_instances_and_size_isomorphism():
    entry = verify_family(Family("lstm", "many_to_one", True, "gates", "on"))
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
    out = cross_validate(SMOKE_FAMILIES, samples=3, seed=1)
    assert out["samples"] == 3
    assert out["ok"] is True
    assert all(e["findings"] == 0 for e in out["entries"])
    assert all(e["observed_tasks"] > 0 for e in out["entries"])


# -- the certificate ---------------------------------------------------------


def test_certificate_assembles_and_validates():
    cert = build_certificate(SMOKE_FAMILIES, samples=2, seed=0)
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
    assert cert["cross_validation"]["max_findings"] == 0
    assert cert["cross_validation"]["min_observed_tasks"] > 0
    for entry in cert["families"]:
        assert {"label", "cell", "fusion", "instances", "size_isomorphism",
                "findings", "ok"} <= set(entry)
