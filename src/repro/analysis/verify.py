"""The dependence proof: family-level race freedom and minimality.

B-Par is correct iff its ``in``/``out``/``inout`` declarations are the
real dependences.  :func:`verify_build` is the one static check of them:
it proves, for every valuation of the symbolic size parameters (hidden
width, input width, merge width, class count, itemsize, per-chunk batch)
of one built graph, five obligations:

1. **Access-spec fidelity** — every task's declared ``in``/``out``/
   ``inout`` key sets equal the access rule of its family
   (:mod:`repro.core.access_spec`), and every declared ``Region`` is the
   object the build interned for its key.  The builder emits declarations
   from that table, so this holds by construction for a graph straight
   out of ``build_brnn_graph``; it is checked for any graph handed in,
   which is what catches a declaration dropped, added or re-stamped
   after the build, a task added around ``_Builder._add``, or a distinct
   ``Region`` aliasing an interned key (dependences match on identity,
   so the tracker would never order that task against the key's other
   accessors).  The table itself is held to the kernels by the one check
   that compares payloads with it: the observed-versus-declared audit
   (:func:`repro.runtime.racecheck.check_build`), which
   :func:`cross_validate` runs on every instance the certificate proves.
2. **Storage soundness** — the symbolic byte extents of all region keys
   (:meth:`GraphBuildResult.symbolic_storage`) evaluate back to the
   declared concrete sizes, every pair of distinct keys sharing an
   address space is *provably disjoint* for all nonnegative size
   valuations, and every kernel footprint is covered by its task's
   declared extents.  With (1) this closes the aliasing gap: two tasks
   can only touch common bytes through a common region key.
3. **Ordering** — every pair of tasks conflicting on a common key is
   path-ordered (:func:`repro.runtime.racecheck.ordering_findings`).
4. **Plan closure** — the compile pass's transitively-reduced edge set
   preserves the declared dependence closure
   (:func:`repro.runtime.racecheck.check_plan`).
5. **Minimality** — no declaration orders what no value needs
   (:func:`minimality_findings`): no region listed twice by one task, no
   read of a graph-produced region before any write of it, no pure
   ``out`` overwritten unread, no ``inout`` write half nobody reads.
   These cannot break (1)-(4) — an over-declaration only serialises — so
   a table that over-declares would otherwise certify.

Together: same-key conflicts are ordered (3), cross-key conflicts are
impossible (1)+(2), the static schedule preserves the order (4), and
the order is no stronger than the dataflow (5) — for the whole family,
not one sampled shape.  Family quantification over the *structural*
parameters (seq_len, mbs, block sizes) is by cutoff instantiation plus a
size-isomorphism check: the task/edge/key structure is invariant under
size changes, so the symbolic proof at one structure covers all sizes of
that structure.

The proof is *checked*, not trusted: :func:`verify_mutations` seeds seven
defect classes — a dropped order-defining edge, a declared region shrunk
below its kernel footprint, a kernel write widened past its declaration,
a dropped reduced-plan edge, a spurious ``inout`` in one access rule, a
``Region`` aliasing an interned key, and a write dropped from one access
rule while the kernel still makes it — and requires each to be flagged
with the exact offending task pair (for the last three: task and region).
:func:`cross_validate` runs every payload of every certified cutoff
instance under access observation and requires zero findings.

A cycle is not a defect class here: ``TaskGraph.add`` only adds edges
from earlier to later tasks, so no build can make one;
:meth:`~repro.runtime.depgraph.TaskGraph.validate_acyclic` is the oracle
for hand-assembled edge sets.

The output is a machine-readable certificate (``repro.cert.v1``), the
``results`` of a ``verify`` report (:mod:`repro.harness.ledger`): ``analyze
--verify --verify-output`` writes it, ``bench --check`` gates it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compile import compile_graph
from repro.core.access_spec import FAMILIES, expected_access
from repro.core.graph_builder import GraphBuildResult, build_brnn_graph
from repro.core.symbolic import Extent, Interval, union_covers
from repro.models.params import BRNNParams
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime import racecheck
from repro.runtime.depgraph import TaskGraph, descendants_bitsets
from repro.runtime.racecheck import DependenceFinding, DependenceReport
from repro.runtime.task import Region, Task

#: certificate serialization format tag
CERT_FORMAT = "repro.cert.v1"
MUTATION_KINDS = (
    "drop_edge", "shrink_region", "widen_write", "drop_plan_edge",
    "over_declare", "alias_region", "undeclare",
)

#: the config axes the certificate quantifies over: cell × head × mode ×
#: tile × projection × paired directions
HEADS = ("many_to_one", "many_to_many")
PROJECTIONS = ("off", "on")

#: structural cutoff instantiations per family: (seq_len, mbs, block) —
#: per-mid-size blocks with a remainder tile, and per-step blocks, so
#: both block-boundary shapes of the proj blocks and chain tiles are proven
_CUTOFF_SHAPES = ((4, 2, 2), (5, 1, 3))

#: batch of the cost-only instantiations (split across ``mbs`` chunks)
_CUTOFF_BATCH = 4


# ---------------------------------------------------------------------------
# Per-build verification
# ---------------------------------------------------------------------------


def _finding(
    kind: str, task: Optional[Task] = None, region: str = "",
    detail: str = "", other: Optional[Task] = None,
) -> DependenceFinding:
    return DependenceFinding(
        kind=kind,
        tid=task.tid if task is not None else -1,
        task=task.name if task is not None else "",
        region=region,
        other_tid=other.tid if other is not None else -1,
        other=other.name if other is not None else "",
        detail=detail,
    )


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
) -> DependenceReport:
    """Run all five obligations on one built graph.

    ``shrink_region`` / ``widen_write`` seed two of the self-test
    mutations: the former shrinks the named region's *declared* extent by
    one byte (modelling a builder that declares less than the kernel
    touches), the latter widens one task's kernel *write* footprint on a
    region by one byte (modelling a kernel that writes past its
    declaration).  Both must surface as findings naming the offending task
    pair.
    """
    graph = result.graph
    env = result.symbol_env()
    report = DependenceReport(n_tasks=len(graph), n_regions=len(result.regions))
    desc = descendants_bitsets(graph.successors)

    def ordered(a: int, b: int) -> bool:
        return bool((desc[a] >> b) & 1 or (desc[b] >> a) & 1)

    # -- obligation 1: access-spec fidelity and region identity ------------
    spec_decls: Dict[int, object] = {}
    fidelity_ok: Dict[int, bool] = {}
    for task in graph:
        for r in task.regions():
            if r.key not in result.regions or result.regions.get(r.key) is not r:
                report.findings.append(_finding(
                    "aliased_region_key", task, repr(r.key),
                    "a Region object other than the one interned for this key: "
                    "dependences match on identity, so this task is never "
                    "ordered against the key's other accessors",
                ))
        if task.kind == "barrier":
            continue
        family = task.meta.get("family")
        if family not in FAMILIES:
            report.findings.append(_finding(
                "unknown_family", task,
                detail=f"no kernel access spec for family {family!r}",
            ))
            continue
        decl = expected_access(family, task.meta, result)
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
                report.findings.append(_finding(
                    "access_spec_mismatch", task, label, f"{label}: {_diff(dc, sc)}"
                ))
        fidelity_ok[task.tid] = match

    # -- obligation 2a: symbolic sizes match declared sizes -----------------
    region_extents: Dict[object, Tuple[Extent, ...]] = {}
    for region in result.regions.regions():
        exts = result.symbolic_storage(region.key)
        region_extents[region.key] = exts
        size = sum(e.interval.length().evaluate(env) for e in exts)
        if size != region.nbytes:
            report.findings.append(_finding(
                "size_model_mismatch", region=repr(region.key),
                detail=f"symbolic size {size} != declared {region.nbytes}",
            ))

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
            report.findings.append(_finding(
                "storage_overlap_unproven",
                graph.tasks[pair[0]] if pair else None,
                f"{k1!r} / {k2!r}",
                f"extents in space {space!r} not provably disjoint",
                graph.tasks[pair[1]] if pair else None,
            ))

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
                    report.findings.append(_finding(
                        "footprint_uncovered" if other is None or is_ordered
                        else "symbolic_race",
                        task, repr(key),
                        f"{side} footprint {interval!r} in space {e.space!r} "
                        "not covered by declarations",
                        other,
                    ))
        report.coverage_checked += 1

    # -- obligation 3: declared-conflict ordering ---------------------------
    ord_findings, report.ordering_pairs = racecheck.ordering_findings(graph)
    report.findings.extend(ord_findings)

    # -- obligation 4: reduced-plan closure ---------------------------------
    if check_plan:
        prep = racecheck.check_plan(graph, compile_graph(graph, n_workers=n_workers))
        report.plan_edges_checked = prep.plan_edges_checked
        report.findings.extend(prep.findings)

    # -- obligation 5: minimality -------------------------------------------
    report.findings.extend(minimality_findings(graph))
    return report


def minimality_findings(graph: TaskGraph) -> List[DependenceFinding]:
    """Obligation 5: every declaration orders something a value needs.

    Per task, a region listed twice is a ``duplicate_declaration`` (``in``
    plus ``out`` is an ``inout``).  Then one pass over each data-carrying
    region's accesses in registration order — a sequentially valid order
    for every graph the builder emits:

    * ``uninitialized_read`` — an ``in``, or the read half of an
      ``inout``, of a region the graph itself produces (some task declares
      a pure ``out`` on it) before any write of it: the read observes
      garbage under every legal schedule.  External inputs never trip it;
    * ``dead_write`` — a pure ``out`` the next access overwrites unread:
      the write buys WAR/WAW serialisation and feeds nobody.  A region's
      last access is exempt; its value is a graph output;
    * ``unconsumed_inout_write`` — the write half of an ``inout`` that the
      next access overwrites, or that no access follows, on a task with
      successors: declared ``in``, every later accessor could overlap it.
      A sink task's write (a weight update) is the graph's output.

    Zero-byte regions are ordering tokens (B-Seq's chunk chain) that carry
    no value and are exempt from the pass.
    """
    findings: List[DependenceFinding] = []
    history: Dict[object, List[Tuple[Task, str]]] = {}
    for task in graph:
        modes: Dict[object, set] = {}
        carries: Dict[object, bool] = {}
        for mode, regions in (("in", task.ins), ("out", task.outs), ("inout", task.inouts)):
            for r in regions:
                if r.key in modes:
                    findings.append(_finding(
                        "duplicate_declaration", task, repr(r.key),
                        "listed more than once; declare it once",
                    ))
                modes.setdefault(r.key, set()).add(mode)
                carries[r.key] = bool(r.nbytes)
        for key, listed in modes.items():
            if carries[key]:
                # one access per task: read and written (``in`` + ``out``
                # included) is an ``inout``
                mode = listed.pop() if len(listed) == 1 else "inout"
                history.setdefault(key, []).append((task, mode))
    for key, accesses in history.items():
        produced = any(mode == "out" for _, mode in accesses)
        written = False
        for i, (task, mode) in enumerate(accesses):
            nxt = accesses[i + 1][1] if i + 1 < len(accesses) else None
            if mode != "out" and produced and not written:
                findings.append(_finding(
                    "uninitialized_read", task, repr(key),
                    "read before any write of a region the graph produces",
                ))
            if mode == "out" and nxt == "out":
                findings.append(_finding(
                    "dead_write", task, repr(key),
                    "`out` value overwritten before any task reads it",
                ))
            if mode == "inout" and nxt in (None, "out") and graph.successors[task.tid]:
                findings.append(_finding(
                    "unconsumed_inout_write", task, repr(key),
                    "the write half of this `inout` is never read; `in` would "
                    "free every later accessor to overlap with this task",
                ))
            written = written or mode != "in"
    return findings


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
    """One point of the ``cell × head × mode × tile × projection × paired``
    grid; a ``tiled`` family's chain and merge tasks cover ``block`` steps
    each, a ``paired`` one pairs the forward chains."""

    cell: str
    head: str
    training: bool
    fused_input_projection: str
    tiled: bool = False
    paired: bool = False

    def label(self) -> str:
        head = "m2o" if self.head == "many_to_one" else "m2m"
        mode = "train" if self.training else "fwd"
        return (
            f"{self.cell}/{head}/{mode}"
            f"/proj={self.fused_input_projection}{'/tiled' if self.tiled else ''}"
            f"{'/paired' if self.paired else ''}"
        )

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "head": self.head,
            "training": self.training,
            "tiled": self.tiled,
            "paired": self.paired,
            "fused_input_projection": self.fused_input_projection,
            "label": self.label(),
        }


def full_family_matrix() -> List[Family]:
    """Every family of the certificate's quantified config space, each a
    distinct graph."""
    return [
        Family(cell, head, training, proj, tiled, paired)
        for cell in CELL_TYPES
        for head in HEADS
        for training in (False, True)
        for tiled in (False, True)
        for proj in PROJECTIONS
        for paired in (False, True)
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
        paired=fam.paired,
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


def _declared_conflict(a: Task, b: Task) -> bool:
    """Do the tasks touch a common region with at least one writer?"""
    return not (
        a.region_ids().isdisjoint(id(r) for r in b.writes())
        and b.region_ids().isdisjoint(id(r) for r in a.writes())
    )


def order_defining_edges(graph: TaskGraph) -> List[Tuple[int, int]]:
    """Edges whose removal actually relaxes the partial order.

    An edge ``a → b`` is *redundant* when another path ``a → … → b``
    exists (dependence still enforced transitively); deleting it changes
    nothing and genuinely introduces no race.  The edge-drop mutation
    therefore only deletes order-defining edges — and additionally only
    those whose endpoints conflict on a declared region, since a barrier
    edge with no shared data is not detectable from declarations.
    """
    redundant = set(graph.redundant_edges())
    return [
        (a, b)
        for a, b in graph.edges()
        if (a, b) not in redundant
        and _declared_conflict(graph.tasks[a], graph.tasks[b])
    ]


def probe_edge(graph: TaskGraph, edge: Tuple[int, int]) -> dict:
    """Delete dependence ``edge`` and re-run the ordering audit:
    ``detected`` is True iff the audit flags exactly the deleted edge's
    endpoints as an unordered conflicting pair."""
    a, b = edge
    mutated = [list(s) for s in graph.successors]
    mutated[a].remove(b)
    findings, _ = racecheck.ordering_findings(graph, successors=mutated)
    return {
        "edge_names": (graph.tasks[a].name, graph.tasks[b].name),
        "detected": any({f.tid, f.other_tid} == {a, b} for f in findings),
    }


_REPRESENTATIVE = Family("lstm", "many_to_one", True, "off")

#: the access rule the ``over_declare`` mutation edits: its ``in`` on the
#: logits becomes an ``inout`` nobody reads back
_OVER_DECLARED = "loss@_build_head"

#: the access rule the ``undeclare`` mutation edits: its ``cache`` outs go,
#: while the forward cell kernel still writes the per-step cache
_UNDECLARED = "cell@_build_forward_layer"


def _representative_build() -> GraphBuildResult:
    """The BLSTM train graph the mutation self-tests operate on."""
    return build_family_instance(
        _REPRESENTATIVE, _instance_kwargs(_REPRESENTATIVE, 4, 2, 2)
    )


def _hit(report: DependenceReport, kind: str, task: Task, key) -> list:
    """``[task, region]`` of the finding of ``kind`` naming exactly this
    task and key, or ``[]``."""
    return next(
        ([f.task, f.region] for f in report.findings
         if f.kind == kind and f.tid == task.tid and f.region == repr(key)),
        [],
    )


def verify_mutations(*, seed: int = 0, n_workers: int = 2) -> dict:
    """Seed the seven defect classes; each must be flagged with its pair.

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
    * ``over_declare`` — the access table itself turns the loss rule's
      ``in`` on the logits into an ``inout``; the build follows the table,
      so fidelity holds and nothing races, and minimality must name the
      loss task and the logits region.
    * ``alias_region`` — one task declares a distinct ``Region`` object
      under an interned key; fidelity must name the task and the key.
    * ``undeclare`` — the mirror of ``over_declare``: the access table
      drops the forward cell rule's ``cache`` outs and the build follows
      it, so every static obligation still holds; the observed audit must
      name the first cell task and the cache slot it writes undeclared.
    """
    result = _representative_build()
    graph = result.graph
    rng = random.Random(seed)
    T = result.seq_len
    out: Dict[str, dict] = {}

    # 1: drop one order-defining edge
    candidates = order_defining_edges(graph)
    probe = probe_edge(graph, candidates[rng.randrange(len(candidates))])
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

    # 5: a spurious ``inout`` in the access table (the build follows it)
    rule = FAMILIES[_OVER_DECLARED]
    FAMILIES[_OVER_DECLARED] = lambda meta, ctx: _spurious_inout(rule(meta, ctx))
    try:
        mutant = _representative_build()
        rep = verify_build(mutant, n_workers=n_workers, check_plan=False)
    finally:
        FAMILIES[_OVER_DECLARED] = rule
    victim = next(t for t in mutant.graph if t.meta["family"] == _OVER_DECLARED)
    key = victim.inouts[-1].key
    pair = _hit(rep, "unconsumed_inout_write", victim, key)
    out["over_declare"] = {
        "target": f"{_OVER_DECLARED}: in {key!r} → inout",
        "pair": pair,
        "detected": bool(pair),
    }

    # 6: a distinct Region object under an interned key
    mutant = _representative_build()
    victim = next(t for t in mutant.graph if any(r.key == target_key for r in t.ins))
    victim.ins = tuple(
        Region(r.key, r.nbytes) if r.key == target_key else r for r in victim.ins
    )
    victim._regions = victim._region_ids = None  # drop the cached views
    rep = verify_build(mutant, n_workers=n_workers, check_plan=False)
    pair = _hit(rep, "aliased_region_key", victim, target_key)
    out["alias_region"] = {
        "target": f"{victim.name} → {target_key!r}",
        "pair": pair,
        "detected": bool(pair),
    }

    # 7: a write the kernel makes, dropped from the access table
    rule = FAMILIES[_UNDECLARED]
    FAMILIES[_UNDECLARED] = lambda meta, ctx: _without_cache(rule(meta, ctx))
    try:
        mutant = build_family_functional(_REPRESENTATIVE)
    finally:
        FAMILIES[_UNDECLARED] = rule
    rep = racecheck.check_build(mutant)
    victim = next(t for t in mutant.graph if t.meta["family"] == _UNDECLARED)
    meta = victim.meta
    key = ("cache", meta["mb"], meta["layer"], meta["dir"], meta["lo"])
    pair = _hit(rep, "undeclared_write", victim, key)
    out["undeclare"] = {
        "target": f"{_UNDECLARED}: out {key!r} dropped",
        "pair": pair,
        "detected": bool(pair),
    }

    out["all_detected"] = all(out[kind]["detected"] for kind in MUTATION_KINDS)
    return out


def _spurious_inout(decl):
    """``decl`` with its first ``in`` declared ``inout`` instead."""
    return decl._replace(ins=decl.ins[1:], inouts=decl.inouts + decl.ins[:1])


def _without_cache(decl):
    """``decl`` with its ``cache`` outs dropped."""
    return decl._replace(outs=tuple(k for k in decl.outs if k[0] != "cache"))


# ---------------------------------------------------------------------------
# Dynamic cross-validation
# ---------------------------------------------------------------------------


def build_family_functional(fam: Family, seq_len: int = 4, mbs: int = 2, block: int = 2):
    """A functional (real-numerics) build of one cutoff instance of ``fam``:
    the structure :func:`verify_family` proves, on seeded inputs and
    freshly initialised parameters."""
    spec = _family_spec(fam)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((seq_len, _CUTOFF_BATCH, spec.input_size)).astype(spec.dtype)
    shape = _CUTOFF_BATCH if spec.head == "many_to_one" else (seq_len, _CUTOFF_BATCH)
    labels = rng.integers(0, spec.num_classes, size=shape)
    return build_brnn_graph(
        spec,
        x=x,
        labels=labels if fam.training else None,
        params=BRNNParams.initialize(spec, seed=2),
        lr=0.05,
        **_instance_kwargs(fam, seq_len, mbs, block),
    )


def cross_validate(families: Optional[Iterable[Family]] = None) -> dict:
    """Observe every cutoff instance the certificate proves.

    A sound certificate implies *zero* dynamic findings: each family's
    payloads run once per :data:`_CUTOFF_SHAPES` instance under access
    instrumentation, and the observed byte ranges are diffed against the
    declarations the symbolic proof covered.  This is the check that holds
    the access table to the kernels; ``samples`` counts the instances.
    """
    fams = list(families) if families is not None else full_family_matrix()
    entries = []
    for fam in fams:
        for seq_len, mbs, block in _CUTOFF_SHAPES:
            report = racecheck.check_build(build_family_functional(fam, seq_len, mbs, block))
            entries.append(
                {
                    "family": fam.label(),
                    "seq_len": seq_len,
                    "mbs": mbs,
                    "block": block,
                    "observed_tasks": report.observed_tasks,
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
) -> dict:
    """Verify every family, observe every instance it proves, and emit the
    ``repro.cert.v1`` certificate."""
    fams = list(families) if families is not None else full_family_matrix()
    return assemble_certificate(
        [verify_family(f, n_workers=n_workers) for f in fams],
        verify_mutations(n_workers=n_workers),
        cross_validate(fams),
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
        "n_instances": len(instances),
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
