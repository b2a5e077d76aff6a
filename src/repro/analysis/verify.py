"""Symbolic dependence verifier: family-level race-freedom proofs.

The conformance sweeps check concrete graphs one configuration at a
time; this module proves the same properties once per *family* — for
every valuation of the symbolic size parameters (hidden width, input
width, merge width, class count, itemsize, per-chunk batch) at the
structural instantiations the certificate lists.  Four obligations per
built graph:

1. **Access-spec fidelity** — every task's declared ``in``/``out``/
   ``inout`` key sets equal the access rule of its family
   (:mod:`repro.core.access_spec`).  The builder emits declarations from
   that table, so this holds by construction for a graph straight out of
   ``build_brnn_graph``; it is checked for any graph handed in, which is
   what catches a declaration dropped or a family re-stamped after the
   build, or a task added around ``_Builder._add``.  The table itself is
   held to the kernels by the two checks that compare payloads with it:
   the closure lint (:mod:`repro.analysis.pylint`) and the dynamic
   observed-versus-declared audit (:func:`cross_validate` here,
   :func:`repro.runtime.racecheck.check_build`).
2. **Storage soundness** — the symbolic byte extents of all region keys
   (:meth:`GraphBuildResult.symbolic_storage`) evaluate back to the
   declared concrete sizes, and every pair of distinct keys sharing an
   address space is *provably disjoint* for all nonnegative size
   valuations.  With (1) this closes the aliasing gap: two tasks can
   only touch common bytes through a common region key.
3. **Ordering** — every pair of tasks conflicting on a common key is
   path-ordered (:func:`repro.runtime.racecheck.ordering_findings`).
   The dependence tracker orders same-key conflicts by construction;
   the audit re-derives it independently.
4. **Plan closure** — the compile pass's transitively-reduced edge set
   preserves the declared dependence closure
   (:func:`repro.runtime.racecheck.check_plan`).

Together: same-key conflicts are ordered (3), cross-key conflicts are
impossible (1)+(2), and the static schedule preserves the order (4) —
race freedom for the whole family, not one sampled shape.  Family
quantification over the *structural* parameters (seq_len, mbs, block
sizes) is by cutoff instantiation plus a size-isomorphism check: the
task/edge/key structure is invariant under size changes, so the
symbolic proof at one structure covers all sizes of that structure.

The proof is *checked*, not trusted: :func:`verify_mutations` seeds four
defect classes — a dropped order-defining edge, a declared region shrunk
below its kernel footprint, a kernel write widened past its declaration,
and a dropped reduced-plan edge — and requires each to be flagged with
the exact offending task pair.  :func:`cross_validate` additionally runs
the dynamic race checker on sampled concrete configs from certified
families and requires zero findings.

The output is a machine-readable certificate (``repro.cert.v1``), the
``results`` of a ``verify`` report (:mod:`repro.harness.ledger`): ``analyze
--verify --verify-output`` writes it, ``bench --check`` gates it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compile import compile_graph
from repro.core.access_spec import FAMILIES, AccessContext, expected_access
from repro.core.graph_builder import GraphBuildResult, build_brnn_graph
from repro.core.symbolic import Extent, Interval, union_covers
from repro.models.cells import FUSION_MODES
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime import racecheck
from repro.runtime.depgraph import descendants_bitsets

#: certificate serialization format tag
CERT_FORMAT = "repro.cert.v1"
MUTATION_KINDS = ("drop_edge", "shrink_region", "widen_write", "drop_plan_edge")

#: the config axes the certificate quantifies over: cell × head × mode ×
#: kernel (``FUSION_MODES``) × tile × projection
CELLS = ("lstm", "gru", "rnn")
HEADS = ("many_to_one", "many_to_many")
PROJECTIONS = ("off", "on")

#: structural cutoff instantiations per family: (seq_len, mbs, block) —
#: per-mid-size blocks with a remainder tile, and per-step blocks, so
#: both block-boundary shapes of the proj blocks and chain tiles are proven
_CUTOFF_SHAPES = ((4, 2, 2), (5, 1, 3))

#: batch of the cost-only instantiations (split across ``mbs`` chunks)
_CUTOFF_BATCH = 4


# ---------------------------------------------------------------------------
# Findings and reports
# ---------------------------------------------------------------------------


@dataclass
class VerifyFinding:
    """One verification failure, attributed to a task (pair) if possible."""

    kind: str
    task: str = ""
    other: str = ""
    region: str = ""
    detail: str = ""
    tid: int = -1
    other_tid: int = -1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task": self.task,
            "other": self.other,
            "region": self.region,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    """Outcome of :func:`verify_build` on one graph."""

    n_tasks: int = 0
    n_regions: int = 0
    checked_tasks: int = 0
    pairs_proved: int = 0
    coverage_checked: int = 0
    ordering_pairs: int = 0
    plan_edges_checked: int = 0
    findings: List[VerifyFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "n_regions": self.n_regions,
            "checked_tasks": self.checked_tasks,
            "pairs_proved": self.pairs_proved,
            "coverage_checked": self.coverage_checked,
            "ordering_pairs": self.ordering_pairs,
            "plan_edges_checked": self.plan_edges_checked,
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Per-build verification
# ---------------------------------------------------------------------------


def _key_counts(regions) -> Counter:
    return Counter(r.key for r in regions)


def _diff(declared: Counter, spec: Counter) -> str:
    missing = list((spec - declared).elements())
    extra = list((declared - spec).elements())
    parts = []
    if missing:
        parts.append(f"missing {missing!r}")
    if extra:
        parts.append(f"extra {extra!r}")
    return ", ".join(parts)


def verify_build(
    result: GraphBuildResult,
    *,
    n_workers: int = 2,
    check_plan: bool = True,
    shrink_region=None,
    widen_write: Optional[Tuple[int, object]] = None,
) -> VerifyReport:
    """Run all verification obligations on one built graph.

    ``shrink_region`` / ``widen_write`` seed the self-test mutations:
    the former shrinks the named region's *declared* extent by one byte
    (modelling a builder that declares less than the kernel touches),
    the latter widens one task's kernel *write* footprint on a region by
    one byte (modelling a kernel that writes past its declaration).
    Both must surface as findings naming the offending task pair.
    """
    graph = result.graph
    ctx = AccessContext.from_result(result)
    env = result.symbol_env()
    report = VerifyReport(n_tasks=len(graph), n_regions=len(result.regions))
    desc = descendants_bitsets(graph.successors)

    def ordered(a: int, b: int) -> bool:
        return bool((desc[a] >> b) & 1 or (desc[b] >> a) & 1)

    # -- obligation 1: access-spec fidelity --------------------------------
    spec_decls: Dict[int, object] = {}
    fidelity_ok: Dict[int, bool] = {}
    for task in graph:
        if task.kind == "barrier":
            continue
        family = task.meta.get("family")
        if family not in FAMILIES:
            report.findings.append(
                VerifyFinding(
                    kind="unknown_family",
                    task=task.name,
                    tid=task.tid,
                    detail=f"no kernel access spec for family {family!r}",
                )
            )
            continue
        decl = expected_access(family, task.meta, ctx)
        spec_decls[task.tid] = decl
        report.checked_tasks += 1
        match = True
        for label, declared, spec in (
            ("ins", task.ins, decl.ins),
            ("outs", task.outs, decl.outs),
            ("inouts", task.inouts, decl.inouts),
        ):
            dc, sc = _key_counts(declared), Counter(spec)
            if dc != sc:
                match = False
                report.findings.append(
                    VerifyFinding(
                        kind="access_spec_mismatch",
                        task=task.name,
                        tid=task.tid,
                        region=label,
                        detail=f"{label}: {_diff(dc, sc)}",
                    )
                )
        fidelity_ok[task.tid] = match

    # -- obligation 2a: symbolic sizes match declared sizes -----------------
    region_extents: Dict[object, Tuple[Extent, ...]] = {}
    for region in result.regions.regions():
        exts = result.symbolic_storage(region.key)
        region_extents[region.key] = exts
        size = sum(e.interval.length().evaluate(env) for e in exts)
        if size != region.nbytes:
            report.findings.append(
                VerifyFinding(
                    kind="size_model_mismatch",
                    region=repr(region.key),
                    detail=f"symbolic size {size} != declared {region.nbytes}",
                )
            )

    # declared-side extents, with the shrink mutation applied
    declared_extents = dict(region_extents)
    if shrink_region is not None:
        exts = declared_extents[shrink_region]
        head = exts[0]
        declared_extents[shrink_region] = (
            Extent(head.space, Interval(head.interval.lo, head.interval.hi - 1)),
        ) + exts[1:]

    # -- obligation 2b: distinct keys sharing a space are provably disjoint -
    by_space: Dict[tuple, List[Tuple[object, Extent]]] = {}
    for key, exts in region_extents.items():
        for e in exts:
            by_space.setdefault(e.space, []).append((key, e))
    accessors: Dict[object, List[int]] = {}
    writers: Dict[object, List[int]] = {}
    for task in graph:
        for r in task.reads():
            accessors.setdefault(r.key, []).append(task.tid)
        for r in task.writes():
            writers.setdefault(r.key, []).append(task.tid)
            accessors.setdefault(r.key, []).append(task.tid)
    for space, entries in by_space.items():
        for (k1, e1), (k2, e2) in itertools.combinations(entries, 2):
            if k1 == k2:
                continue
            if e1.interval.provably_disjoint(e2.interval):
                report.pairs_proved += 1
                continue
            pair = _unordered_pair(
                writers.get(k1, []) + writers.get(k2, []),
                accessors.get(k1, []) + accessors.get(k2, []),
                ordered,
            )
            report.findings.append(
                VerifyFinding(
                    kind="storage_overlap_unproven",
                    region=f"{k1!r} / {k2!r}",
                    task=graph.tasks[pair[0]].name if pair else "",
                    other=graph.tasks[pair[1]].name if pair else "",
                    tid=pair[0] if pair else -1,
                    other_tid=pair[1] if pair else -1,
                    detail=f"extents in space {space!r} not provably disjoint",
                )
            )

    # -- obligation 2c: kernel footprints covered by declarations -----------
    mutated_keys = set()
    if shrink_region is not None:
        mutated_keys.add(shrink_region)
    widen_tid = widen_write[0] if widen_write else None
    for task in graph:
        decl = spec_decls.get(task.tid)
        if decl is None:
            continue
        touched = {r.key for r in task.regions()}
        needs_sweep = (
            bool(touched & mutated_keys)
            or task.tid == widen_tid
            or not fidelity_ok[task.tid]
        )
        if not needs_sweep:
            # fidelity proved declared keys == kernel keys, and extents are
            # derived per key — coverage holds by identity
            report.coverage_checked += 1
            continue
        for side, foot_keys, decl_regions in (
            ("read", decl.reads(), task.reads()),
            ("write", decl.writes(), task.writes()),
        ):
            cover_by_space: Dict[tuple, List[Interval]] = {}
            for r in decl_regions:
                for e in declared_extents.get(r.key, ()):
                    cover_by_space.setdefault(e.space, []).append(e.interval)
            for key in foot_keys:
                for e in region_extents.get(key, ()):
                    interval = e.interval
                    if (
                        side == "write"
                        and task.tid == widen_tid
                        and key == widen_write[1]
                    ):
                        interval = Interval(interval.lo, interval.hi + 1)
                    if union_covers(cover_by_space.get(e.space, []), interval):
                        continue
                    orphan = Extent(e.space, interval)
                    other, is_ordered = _conflicting_other(
                        graph, task, orphan, region_extents, ordered
                    )
                    report.findings.append(
                        VerifyFinding(
                            kind=(
                                "footprint_uncovered"
                                if other is None or is_ordered
                                else "symbolic_race"
                            ),
                            task=task.name,
                            tid=task.tid,
                            other=other.name if other is not None else "",
                            other_tid=other.tid if other is not None else -1,
                            region=repr(key),
                            detail=(
                                f"{side} footprint {interval!r} in space "
                                f"{e.space!r} not covered by declarations"
                            ),
                        )
                    )
        report.coverage_checked += 1

    # -- obligation 3: declared-conflict ordering ---------------------------
    ord_findings, pairs = racecheck.ordering_findings(graph)
    report.ordering_pairs = pairs
    for f in ord_findings:
        report.findings.append(
            VerifyFinding(
                kind=f.kind,
                task=f.task,
                other=f.other or "",
                region=f.region,
                detail=f.detail,
                tid=f.tid,
                other_tid=f.other_tid if f.other_tid is not None else -1,
            )
        )

    # -- obligation 4: reduced-plan closure ---------------------------------
    if check_plan:
        plan = compile_graph(graph, n_workers=n_workers)
        prep = racecheck.check_plan(graph, plan)
        report.plan_edges_checked = prep.checked_pairs
        for f in prep.findings:
            report.findings.append(
                VerifyFinding(
                    kind=f.kind,
                    task=f.task,
                    other=f.other or "",
                    region=f.region,
                    detail=f.detail,
                    tid=f.tid,
                    other_tid=f.other_tid if f.other_tid is not None else -1,
                )
            )
    return report


def _unordered_pair(
    writer_tids: Sequence[int], accessor_tids: Sequence[int], ordered
) -> Optional[Tuple[int, int]]:
    """An unordered (writer, accessor) pair, or any conflicting pair."""
    fallback = None
    for w in writer_tids:
        for a in accessor_tids:
            if a == w:
                continue
            if not ordered(w, a):
                return (w, a)
            if fallback is None:
                fallback = (w, a)
    return fallback


def _conflicting_other(graph, task, orphan: Extent, region_extents, ordered):
    """The task whose declared extents overlap ``orphan``, preferring one
    not path-ordered with ``task`` (a genuine symbolic race witness)."""
    fallback = None
    for other in graph.tasks:
        if other.tid == task.tid or other.kind == "barrier":
            continue
        for r in other.regions():
            for e in region_extents.get(r.key, ()):
                if e.space != orphan.space:
                    continue
                if e.interval.provably_disjoint(orphan.interval):
                    continue
                if not ordered(task.tid, other.tid):
                    return other, False
                if fallback is None:
                    fallback = other
    return fallback, True


# ---------------------------------------------------------------------------
# Config families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One point of the ``cell × head × mode × fusion × tile × projection``
    grid; a ``tiled`` family's chain tasks cover ``block`` steps each."""

    cell: str
    head: str
    training: bool
    fusion: str
    fused_input_projection: str
    tiled: bool = False

    def label(self) -> str:
        head = "m2o" if self.head == "many_to_one" else "m2m"
        mode = "train" if self.training else "fwd"
        return (
            f"{self.cell}/{head}/{mode}/fusion={self.fusion}"
            f"/proj={self.fused_input_projection}{'/tiled' if self.tiled else ''}"
        )

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "head": self.head,
            "training": self.training,
            "fusion": self.fusion,
            "tiled": self.tiled,
            "fused_input_projection": self.fused_input_projection,
            "label": self.label(),
        }


def full_family_matrix() -> List[Family]:
    """Every family of the certificate's quantified config space, each a
    distinct graph: ``fusion="off"`` never hoists, so it has no ``proj=on``
    family of its own."""
    return [
        Family(cell, head, training, fusion, proj, tiled)
        for cell in CELLS
        for head in HEADS
        for training in (False, True)
        for fusion in FUSION_MODES
        for tiled in (False, True)
        for proj in PROJECTIONS
        if (fusion, proj) != ("off", "on")
    ]


def _family_spec(fam: Family, hidden: int = 4, input_size: int = 5) -> BRNNSpec:
    return BRNNSpec(
        cell=fam.cell,
        input_size=input_size,
        hidden_size=hidden,
        num_layers=2,
        merge_mode="sum",
        head=fam.head,
        num_classes=3,
        dtype=np.float32,
    )


def _instance_kwargs(fam: Family, seq_len: int, mbs: int, block: int) -> dict:
    kwargs = dict(
        seq_len=seq_len,
        batch=_CUTOFF_BATCH,
        mbs=mbs,
        training=fam.training,
        fused_input_projection=fam.fused_input_projection,
        fusion=fam.fusion,
    )
    if fam.fused_input_projection == "on":
        kwargs["proj_block"] = block
    if fam.tiled:
        kwargs["wavefront_tile"] = block
    return kwargs


def build_family_instance(
    fam: Family, kwargs: dict, hidden: int = 4, input_size: int = 5
) -> GraphBuildResult:
    """Cost-only build of one structural instantiation of ``fam``."""
    return build_brnn_graph(_family_spec(fam, hidden, input_size), **kwargs)


def _structure_signature(result: GraphBuildResult) -> tuple:
    """Size-independent structure: names, kinds, region keys, edges."""
    g = result.graph
    return tuple(
        (
            t.name,
            t.kind,
            tuple(r.key for r in t.ins),
            tuple(r.key for r in t.outs),
            tuple(r.key for r in t.inouts),
            tuple(sorted(g.successors[t.tid])),
        )
        for t in g
    )


def verify_family(fam: Family, *, n_workers: int = 2) -> dict:
    """Verify all cutoff instantiations of one family.

    Also proves *size isomorphism*: rebuilding the first instantiation
    with different hidden/input/batch widths must produce an identical
    task/edge/key structure, which is what lets the symbolic per-instance
    proof quantify over all sizes of that structure.
    """
    entry = fam.to_dict()
    instances = []
    findings: List[dict] = []
    first_signature = None
    first_shape = None
    for seq_len, mbs, block in _CUTOFF_SHAPES:
        kwargs = _instance_kwargs(fam, seq_len, mbs, block)
        result = build_family_instance(fam, kwargs)
        if first_signature is None:
            first_signature = _structure_signature(result)
            first_shape = kwargs
        rep = verify_build(result, n_workers=n_workers)
        instances.append(
            {
                "seq_len": seq_len,
                "mbs": mbs,
                "block": block,
                "n_tasks": rep.n_tasks,
                "n_regions": rep.n_regions,
                "pairs_proved": rep.pairs_proved,
                "ordering_pairs": rep.ordering_pairs,
                "plan_edges_checked": rep.plan_edges_checked,
                "findings": len(rep.findings),
                "ok": rep.ok,
            }
        )
        findings.extend(f.to_dict() for f in rep.findings[:4])
    alt = build_family_instance(
        fam, dict(first_shape, batch=6), hidden=6, input_size=7
    )
    iso = _structure_signature(alt) == first_signature
    entry.update(
        instances=instances,
        size_isomorphism=iso,
        findings=findings,
        ok=iso and all(i["ok"] for i in instances),
    )
    return entry


# ---------------------------------------------------------------------------
# Mutation self-tests
# ---------------------------------------------------------------------------


def _representative_build() -> GraphBuildResult:
    """The BLSTM train graph the mutation self-tests operate on."""
    fam = Family("lstm", "many_to_one", True, "gates", "off")
    return build_family_instance(fam, _instance_kwargs(fam, 4, 2, 2))


def verify_mutations(
    result: Optional[GraphBuildResult] = None,
    *,
    seed: int = 0,
    n_workers: int = 2,
) -> dict:
    """Seed the four defect classes; each must be flagged with its pair.

    * ``drop_edge`` — delete one order-defining graph edge; the ordering
      audit must name exactly the deleted edge's endpoints.
    * ``shrink_region`` — shrink one declared region one byte below its
      kernel footprint; the coverage proof must fail naming the region's
      writer/reader pair.
    * ``widen_write`` — widen one kernel write one byte past its
      declaration (into the adjacent slot of the chain running the other
      direction); the verifier must name the unordered cross-direction
      pair.
    * ``drop_plan_edge`` — delete one reduced-plan edge; the closure
      audit must name the now-uncovered declared dependence.
    """
    if result is None:
        result = _representative_build()
    graph = result.graph
    rng = random.Random(seed)
    T = result.seq_len
    out: Dict[str, dict] = {}

    # 1: drop one order-defining edge
    candidates = racecheck.order_defining_edges(graph)
    probe = racecheck.probe_edge(
        graph, candidates[rng.randrange(len(candidates))]
    )
    out["drop_edge"] = {
        "target": list(probe["edge_names"]),
        "pair": list(probe["edge_names"]),
        "detected": probe["detected"],
    }

    # 2: shrink one declared region below the kernel footprint
    target_key = ("h", 0, 0, "fwd", T - 1)
    rep = verify_build(
        result, n_workers=n_workers, check_plan=False, shrink_region=target_key
    )
    hit = next(
        (
            f
            for f in rep.findings
            if f.kind in ("footprint_uncovered", "symbolic_race") and f.other
        ),
        None,
    )
    out["shrink_region"] = {
        "target": repr(target_key),
        "pair": [hit.task, hit.other] if hit else [],
        "detected": hit is not None,
    }

    # 3: widen one kernel write past its declaration
    writer_tid = next(
        t.tid for t in graph if any(r.key == target_key for r in t.outs)
    )
    rep = verify_build(
        result,
        n_workers=n_workers,
        check_plan=False,
        widen_write=(writer_tid, target_key),
    )
    hit = next((f for f in rep.findings if f.kind == "symbolic_race"), None)
    out["widen_write"] = {
        "target": f"{graph.tasks[writer_tid].name} → {target_key!r}",
        "pair": [hit.task, hit.other] if hit else [],
        "detected": hit is not None,
    }

    # 4: drop one reduced-plan edge
    plan = compile_graph(graph, n_workers=n_workers)
    edges = [(a, b) for a in range(len(graph)) for b in plan.successors[a]]
    a, b = edges[rng.randrange(len(edges))]
    prep = racecheck.check_plan(graph, plan.without_edge(a, b))
    flagged = any(
        f.kind == "plan_dependence_violation" and f.tid == a and f.other_tid == b
        for f in prep.findings
    )
    out["drop_plan_edge"] = {
        "target": [graph.tasks[a].name, graph.tasks[b].name],
        "pair": [graph.tasks[a].name, graph.tasks[b].name],
        "detected": flagged,
    }

    out["all_detected"] = all(out[kind]["detected"] for kind in MUTATION_KINDS)
    return out


# ---------------------------------------------------------------------------
# Dynamic cross-validation
# ---------------------------------------------------------------------------


def build_family_functional(fam: Family, *, seq_len: int = 4, batch: int = 4,
                            mbs: int = 2, block: int = 2, seed: int = 5):
    """A functional (real-numerics) build of one certified family member."""
    spec = _family_spec(fam)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(spec.dtype)
    if spec.head == "many_to_one":
        labels = rng.integers(0, spec.num_classes, size=batch)
    else:
        labels = rng.integers(0, spec.num_classes, size=(seq_len, batch))
    return build_brnn_graph(
        spec,
        x=x,
        labels=labels if fam.training else None,
        params=BRNNParams.initialize(spec, seed=2),
        training=fam.training,
        mbs=mbs,
        lr=0.05,
        fused_input_projection=fam.fused_input_projection,
        proj_block=block,
        fusion=fam.fusion,
        wavefront_tile=block if fam.tiled else None,
    )


def cross_validate(
    families: Optional[Iterable[Family]] = None,
    *,
    samples: int = 8,
    seed: int = 0,
) -> dict:
    """Dynamic race check of sampled concrete configs from the families.

    A sound certificate implies *zero* dynamic findings: the payloads run
    once under access instrumentation and the observed byte ranges are
    diffed against the declarations the symbolic proof covered.
    """
    pool = list(families) if families is not None else full_family_matrix()
    rng = random.Random(seed)
    picked = rng.sample(pool, min(samples, len(pool)))
    entries = []
    for fam in picked:
        result = build_family_functional(fam)
        report = racecheck.check_build(result)
        entries.append(
            {
                "family": fam.label(),
                "observed_tasks": report.observed_tasks,
                "checked_pairs": report.checked_pairs,
                "findings": len(report.findings),
                "ok": report.ok,
            }
        )
    return {
        "samples": len(entries),
        "entries": entries,
        "ok": all(e["ok"] for e in entries),
    }


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------


def build_certificate(
    families: Optional[Sequence[Family]] = None,
    *,
    n_workers: int = 2,
    samples: int = 8,
    seed: int = 0,
) -> dict:
    """Verify every family and emit the ``repro.cert.v1`` certificate."""
    fams = list(families) if families is not None else full_family_matrix()
    return assemble_certificate(
        [verify_family(f, n_workers=n_workers) for f in fams],
        verify_mutations(seed=seed, n_workers=n_workers),
        cross_validate(fams, samples=samples, seed=seed),
    )


def assemble_certificate(families: List[dict], mutations: dict, cross: dict) -> dict:
    """The certificate over its three blocks, with the aggregates the
    ``verify`` bars read: re-assembling edited blocks re-derives them."""
    instances = [inst for entry in families for inst in entry["instances"]]
    certified = sum(1 for e in families if e["ok"])
    entries = cross["entries"]

    def exact_pair(pair) -> bool:
        return len(pair) == 2 and all(pair)

    return {
        "format": CERT_FORMAT,
        "model": {
            "num_layers": 2,
            "hidden_size": 4,
            "input_size": 5,
            "num_classes": 3,
            "cutoff_shapes": [list(s) for s in _CUTOFF_SHAPES],
            "symbolic_parameters": ["H", "I0", "M", "C", "isz", "b0..b{mbs-1}"],
        },
        "n_families": len(families),
        "n_certified": certified,
        "n_distinct_labels": len({e["label"] for e in families}),
        "n_size_isomorphic": sum(1 for e in families if e["size_isomorphism"]),
        "min_pairs_proved": min(i["pairs_proved"] for i in instances),
        "min_plan_edges_checked": min(i["plan_edges_checked"] for i in instances),
        "families": families,
        "mutations": {
            **mutations,
            **{kind: {**mutations[kind], "exact_pair": exact_pair(mutations[kind]["pair"])}
               for kind in MUTATION_KINDS},
        },
        "cross_validation": {
            **cross,
            "max_findings": max((e["findings"] for e in entries), default=0),
            "min_observed_tasks": min((e["observed_tasks"] for e in entries), default=0),
        },
        "ok": (
            certified == len(families)
            and mutations["all_detected"]
            and cross["ok"]
        ),
    }
