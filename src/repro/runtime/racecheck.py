"""Dependence findings, the ordering audit, and the dynamic instruments.

B-Par's correctness rests entirely on the completeness of the ``Region``
in/out/inout declarations: one missing dependence lets a scheduler reorder
a reader past a writer and silently corrupt results — the classic hazard
of OmpSs-style runtimes.  The static proof of the declarations is
:func:`repro.analysis.verify.verify_build`; this module holds what it
shares with the runtime and the instruments that *execute* graphs:

* the one finding type and one report (:class:`DependenceFinding`,
  :class:`DependenceReport`) every check writes, and :class:`RaceError`,
  which carries a report;
* the **order audit** (:func:`ordering_findings`): every pair of tasks
  whose declared accesses conflict (shared region, at least one writer)
  must be connected by a dependence path; an unordered conflicting pair
  can run concurrently under some legal schedule and is a race.  It needs
  no payloads; the proof runs it as one obligation;
* **access observation** plus **declaration diff** (:func:`check_build`):
  run a functional graph serially with every parameter/state buffer
  swapped for a :class:`TrackedArray` view that records the byte ranges
  each NumPy operation actually reads and writes; any observed byte range
  inside *some* region's storage but outside the task's own declarations
  is an undeclared access — the bug class a missing ``in(...)``/
  ``out(...)`` clause creates.  No payload rebinds storage, so every
  region resolves once; a task that leaves a storage array rebound
  (``slot = new``) is itself an ``undeclared_write`` finding;
* the **schedule fuzzer**: a :class:`~repro.runtime.scheduler.FuzzScheduler`
  permutes ready-queue pop order under a seed (:func:`fuzz_equivalence_sweep`
  asserts bitwise-equal results across seeds), and :func:`record_schedule` /
  :func:`replay_schedule` serialise one schedule to JSON and re-execute it;
* the **plan audit** and audited replay (:func:`check_plan`,
  :func:`replay_plan`, :func:`plan_equivalence_check`), on the simulated
  executor, the one that replays plans.

Layering: this module depends only on the runtime substrate, the
simulated machine and NumPy; it reaches graph-builder storage exclusively
through the duck-typed ``GraphBuildResult.region_storage``/``map_storage``
interface.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.runtime.depgraph import TaskGraph, descendants_bitsets
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.scheduler import (
    RecordingScheduler,
    ReplayScheduler,
    ScheduleRecord,
    resolve_scheduler,
)
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import AccessMode
from repro.runtime.trace import ExecutionTrace
from repro.simarch.presets import xeon_8160_2s

try:  # NumPy >= 2.0
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - NumPy 1.x
    byte_bounds = np.byte_bounds  # type: ignore[attr-defined]

#: half-open byte range ``[lo, hi)`` of one array's memory extent
Interval = Tuple[int, int]


class RaceError(RuntimeError):
    """Raised when dependency validation finds races (see ``report``)."""

    def __init__(self, report: "DependenceReport") -> None:
        super().__init__(report.summary())
        self.report = report


# ---------------------------------------------------------------------------
# Access recording
# ---------------------------------------------------------------------------

#: recorder of the task currently executing under observation (observation
#: is strictly serial, so a single module-level slot suffices)
_RECORDER: Optional["AccessRecorder"] = None


class AccessRecorder:
    """Byte ranges one task's payload actually touched."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: Set[Interval] = set()
        self.writes: Set[Interval] = set()

    def log_read(self, arr: np.ndarray) -> None:
        if arr.size:
            self.reads.update(_extents(arr))

    def log_write(self, arr: np.ndarray) -> None:
        if arr.size:
            extents = _extents(arr)
            self.writes.update(extents)
            self.reads.difference_update(extents)  # pure write ranges stay writes


def _extents(arr: np.ndarray) -> Tuple[Interval, ...]:
    """Byte ranges of ``arr``'s elements: its bounds when they hold nothing
    else, else its sub-arrays' ranges.  A strided view of a state block (one
    direction's steps, ``h[lo:hi, 0]``) has the other direction's slots
    between its rows, which its bounds would claim."""
    lo, hi = byte_bounds(arr)
    if hi - lo == arr.nbytes:
        return ((lo, hi),)
    rows = (arr[i : i + 1] if arr.ndim == 1 else arr[i] for i in range(len(arr)))
    return tuple(extent for row in rows for extent in _extents(row))


def _plain(a):
    return a.view(np.ndarray) if isinstance(a, TrackedArray) else a


def _strip(obj):
    """Recursively replace TrackedArray with plain views in args/kwargs."""
    if isinstance(obj, TrackedArray):
        return obj.view(np.ndarray)
    if isinstance(obj, tuple):
        return tuple(_strip(o) for o in obj)
    if isinstance(obj, list):
        return [_strip(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()}
    return obj


def _log_reads(obj, rec: AccessRecorder) -> None:
    if isinstance(obj, np.ndarray):
        rec.log_read(obj)
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            _log_reads(o, rec)
    elif isinstance(obj, dict):
        for o in obj.values():
            _log_reads(o, rec)


class TrackedArray(np.ndarray):
    """ndarray view that reports its participation in NumPy operations.

    While a recorder is active, ufunc inputs log reads, ``out=`` operands
    and ``__setitem__`` targets log writes, and array functions
    (``np.concatenate`` etc.) log every array argument.  Inputs are
    stripped back to plain ndarrays before delegation, so results are
    ordinary arrays and instrumentation never compounds.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rec = _RECORDER
        out = kwargs.get("out")
        if rec is not None:
            for a in inputs:
                if isinstance(a, np.ndarray):
                    rec.log_read(a)
            if out:
                for o in out:
                    if isinstance(o, np.ndarray):
                        rec.log_write(o)
            if method == "at" and inputs and isinstance(inputs[0], np.ndarray):
                rec.log_write(inputs[0])
        inputs = tuple(_plain(a) for a in inputs)
        if out:
            kwargs["out"] = tuple(_plain(o) for o in out)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        rec = _RECORDER
        if rec is not None:
            _log_reads(args, rec)
            _log_reads(kwargs, rec)
            out = kwargs.get("out")
            if out is not None:
                _log = rec.log_write
                for o in out if isinstance(out, tuple) else (out,):
                    if isinstance(o, np.ndarray):
                        _log(o)
            if func is np.copyto and args and isinstance(args[0], np.ndarray):
                rec.log_write(args[0])
        return func(*_strip(args), **_strip(kwargs))

    def __setitem__(self, key, value):
        rec = _RECORDER
        if rec is not None:
            # ``A[I:] += B`` routes through here with ``self`` the *full*
            # array; log the bounds of the indexed sub-view, not the whole
            # buffer, or every slice-write looks like a write to its
            # neighbours.  Fancy indexing yields a copy (unusable bounds),
            # so fall back to the conservative whole-array extent.
            target = self.view(np.ndarray)
            sub = None
            try:
                cand = target[key]
            except (IndexError, TypeError, ValueError):
                # the only errors NumPy indexing raises for a key that
                # cannot be materialised as a view (bad index, bad type,
                # shape-mismatched mask); fall back to the conservative
                # whole-array extent.  Anything else propagates.
                cand = None
            if (
                isinstance(cand, np.ndarray)
                and cand.size
                and np.shares_memory(cand, target)
            ):
                sub = cand
            rec.log_write(sub if sub is not None else target)
            if isinstance(value, np.ndarray):
                rec.log_read(value)
        super().__setitem__(key, _plain(value))


def _wrap(a: np.ndarray) -> np.ndarray:
    return a if isinstance(a, TrackedArray) else a.view(TrackedArray)


# ---------------------------------------------------------------------------
# Findings and report
# ---------------------------------------------------------------------------


@dataclass
class DependenceFinding:
    """One dependence finding, from any check: the proof's obligations
    (:func:`repro.analysis.verify.verify_build`), the ordering audit, the
    plan audit, or the observed-versus-declared diff.  ``tid``/``task``
    name the offending task; ``other_tid``/``other`` its partner when the
    finding is about a pair."""

    kind: str
    tid: int = -1
    task: str = ""
    region: str = ""
    other_tid: int = -1
    other: str = ""
    detail: str = ""

    def describe(self) -> str:
        pair = f" and {self.other} (tid {self.other_tid})" if self.other else ""
        region = f" on region {self.region}" if self.region else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"[{self.kind}] {self.task} (tid {self.tid}){pair}{region}{detail}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tid": self.tid,
            "task": self.task,
            "region": self.region,
            "other_tid": self.other_tid,
            "other": self.other,
            "detail": self.detail,
        }


@dataclass
class DependenceReport:
    """Every finding on one graph plus what each check covered: tasks
    checked against the access table, disjoint key pairs proved, footprints
    covered, conflicting pairs ordered, plan edges audited, payloads
    observed."""

    n_tasks: int = 0
    n_regions: int = 0
    checked_tasks: int = 0
    pairs_proved: int = 0
    coverage_checked: int = 0
    ordering_pairs: int = 0
    plan_edges_checked: int = 0
    observed_tasks: int = 0
    findings: List[DependenceFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return (
                f"dependences OK: {self.n_tasks} tasks, {self.n_regions} regions, "
                f"{self.ordering_pairs} conflicting pairs ordered, "
                f"{self.observed_tasks} payloads observed"
            )
        kinds = Counter(f.kind for f in self.findings)
        listed = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
        return f"dependences FAILED ({len(self.findings)} findings — {listed})"

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "n_regions": self.n_regions,
            "checked_tasks": self.checked_tasks,
            "pairs_proved": self.pairs_proved,
            "coverage_checked": self.coverage_checked,
            "ordering_pairs": self.ordering_pairs,
            "plan_edges_checked": self.plan_edges_checked,
            "observed_tasks": self.observed_tasks,
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Observation: instrumented serial execution
# ---------------------------------------------------------------------------


@dataclass
class TaskObservation:
    """Observed accesses of one task (byte ranges, declaration-agnostic)."""

    reads: Set[Interval] = field(default_factory=set)
    writes: Set[Interval] = field(default_factory=set)


def _region_bounds(result) -> Dict:
    """Every region key's byte ranges, resolved once."""
    return {
        r.key: tuple(byte_bounds(a) for a in result.region_storage(r.key) if a.size)
        for r in result.regions.regions()
    }


def observe_accesses(result) -> Tuple[Dict[int, TaskObservation], List[DependenceFinding]]:
    """Run a functional graph serially, recording actual accesses per task.

    Executes payloads in registration order (the reference schedule), so
    the graph's numerics run exactly once — pass a freshly built result
    and treat its buffers as consumed.  Returns one
    :class:`TaskObservation` per tid, and the findings of the identity
    check: after each task the storage walk must hand back the very arrays
    it did before, else the task rebound storage and the regions resolved
    once no longer name the bytes it left there.
    """
    global _RECORDER
    if not getattr(result, "functional", False):
        raise ValueError("observe_accesses needs a functional graph (x=... build)")

    def track() -> list:
        """Every storage array, swapped for a tracked view.  Wrapping is
        idempotent, so the arrays a task left alone come back as the same
        objects."""
        arrays = []

        def wrap(a):
            arrays.append(_wrap(a))
            return arrays[-1]

        result.map_storage(wrap)
        return arrays

    observations: Dict[int, TaskObservation] = {}
    findings: List[DependenceFinding] = []
    arrays = track()
    bounds = _region_bounds(result)
    for task in result.graph:
        obs = observations[task.tid] = TaskObservation()
        if task.fn is not None:
            rec = AccessRecorder()
            _RECORDER = rec
            try:
                task.run()
            finally:
                _RECORDER = None
            obs.reads = rec.reads
            obs.writes = rec.writes
        now = track()
        if len(now) != len(arrays) or any(a is not b for a, b in zip(now, arrays)):
            findings += _rebind_findings(bounds, task, arrays, now)
        arrays = now
    result.map_storage(_plain)
    return observations, findings


def _rebind_findings(bounds: Dict, task, before: list, after: list) -> List[DependenceFinding]:
    """One ``undeclared_write`` per region whose storage ``task`` left
    rebound: the regions over the arrays the walk no longer returns (or
    one naming no region, when none of them is a region's)."""
    gone = [byte_bounds(a) for a in before if not any(a is b for b in after)]
    keys = [
        key for key, ranges in bounds.items()
        if any(lo < g_hi and g_lo < hi for lo, hi in ranges for g_lo, g_hi in gone)
    ] or [""]
    return [
        DependenceFinding(
            kind="undeclared_write", tid=task.tid, task=task.name,
            region=repr(key) if key else "",
            detail="storage was rebound; a payload must write its slots in place",
        )
        for key in keys
    ]


def _subtract(interval: Interval, cover: List[Interval]) -> List[Interval]:
    """Parts of ``interval`` not covered by any interval in ``cover``."""
    lo, hi = interval
    segments = [(lo, hi)]
    for clo, chi in cover:
        nxt: List[Interval] = []
        for slo, shi in segments:
            if chi <= slo or clo >= shi:
                nxt.append((slo, shi))
                continue
            if slo < clo:
                nxt.append((slo, clo))
            if chi < shi:
                nxt.append((chi, shi))
        segments = nxt
        if not segments:
            break
    return segments


class _IntervalIndex:
    """Sorted region-interval index for byte-range → region attribution."""

    def __init__(self, entries: Iterable[Tuple[int, int, object]]) -> None:
        self._entries = sorted(set(entries))
        self._los = [e[0] for e in self._entries]

    def overlapping(self, lo: int, hi: int) -> List[Tuple[int, int, object]]:
        out = []
        idx = bisect_right(self._los, lo)
        # entries starting at or before lo may still extend past it
        j = idx - 1
        while j >= 0:
            elo, ehi, key = self._entries[j]
            if ehi > lo:
                out.append(self._entries[j])
                j -= 1
            else:
                # region extents never nest across allocations, so the
                # first non-overlap ends the leftward scan
                break
        j = idx
        while j < len(self._entries) and self._entries[j][0] < hi:
            out.append(self._entries[j])
            j += 1
        return out


def declaration_findings(
    result, observations: Dict[int, TaskObservation]
) -> List[DependenceFinding]:
    """Diff observed accesses against each task's declared regions."""
    bounds = _region_bounds(result)
    index = _IntervalIndex(
        (lo, hi, key) for key, ranges in bounds.items() for lo, hi in ranges
    )
    findings: List[DependenceFinding] = []
    for task in result.graph:
        obs = observations.get(task.tid)
        if obs is None:
            continue
        declared_read_cover: List[Interval] = []
        declared_write_cover: List[Interval] = []
        for region in task.regions():
            mode = task.access_mode(region)
            cover = bounds[region.key]
            declared_read_cover.extend(cover)  # any declaration orders reads
            if mode in (AccessMode.OUT, AccessMode.INOUT):
                declared_write_cover.extend(cover)

        def audit(ranges: Set[Interval], cover: List[Interval], kind: str) -> None:
            hit: Set = set()
            for lo, hi in sorted(ranges):
                for ulo, uhi in _subtract((lo, hi), cover):
                    for _, _, key in index.overlapping(ulo, uhi):
                        if key not in hit:
                            hit.add(key)
                            findings.append(
                                DependenceFinding(
                                    kind=kind,
                                    tid=task.tid,
                                    task=task.name,
                                    region=repr(key),
                                    detail=f"touched bytes [{ulo}, {uhi})",
                                )
                            )

        audit(obs.reads, declared_read_cover, "undeclared_read")
        audit(obs.writes, declared_write_cover, "undeclared_write")
    return findings


# ---------------------------------------------------------------------------
# Ordering audit
# ---------------------------------------------------------------------------


def ordering_findings(
    graph: TaskGraph, successors: Optional[List[List[int]]] = None
) -> Tuple[List[DependenceFinding], int]:
    """Audit that every declared-conflicting task pair is ordered.

    ``successors`` overrides the graph's edge lists (the edge-drop
    mutations re-audit a graph with one dependence deleted).  Returns
    ``(findings, checked_pairs)``.
    """
    succ = graph.successors if successors is None else successors
    desc = descendants_bitsets(succ)
    tasks = graph.tasks

    readers: Dict[int, List[int]] = {}
    writers: Dict[int, List[int]] = {}
    region_of: Dict[int, object] = {}
    for task in tasks:
        for r in task.reads():
            readers.setdefault(id(r), []).append(task.tid)
            region_of[id(r)] = r
        for r in task.writes():
            writers.setdefault(id(r), []).append(task.tid)
            region_of[id(r)] = r

    findings: List[DependenceFinding] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for rid, wlist in writers.items():
        accessors = sorted(set(wlist) | set(readers.get(rid, [])))
        for w in wlist:
            for other in accessors:
                pair = (w, other) if w < other else (other, w)
                if other == w or pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                a, b = pair
                if not ((desc[a] >> b) & 1 or (desc[b] >> a) & 1):
                    findings.append(
                        DependenceFinding(
                            kind="unordered_conflict",
                            tid=a,
                            task=tasks[a].name,
                            region=repr(region_of[rid].key),
                            other_tid=b,
                            other=tasks[b].name,
                            detail="both may run concurrently under a legal schedule",
                        )
                    )
    return findings, len(seen_pairs)


# ---------------------------------------------------------------------------
# Observed versus declared
# ---------------------------------------------------------------------------


def check_build(result, report: Optional[DependenceReport] = None) -> DependenceReport:
    """Execute a functional graph's payloads serially under instrumentation
    and diff the observed byte ranges against the declarations.

    Findings land in ``report`` (a fresh one by default), so ``analyze
    --observe`` adds them to the proof's report of the same build.  Pass a
    freshly built result: the numerics run once (weight updates included).
    """
    if report is None:
        report = DependenceReport(n_tasks=len(result.graph), n_regions=len(result.regions))
    observations, rebinds = observe_accesses(result)
    report.observed_tasks = sum(1 for t in result.graph if t.fn is not None)
    report.findings.extend(rebinds)
    report.findings.extend(declaration_findings(result, observations))
    return report


# ---------------------------------------------------------------------------
# Schedule fuzzing, record and replay
# ---------------------------------------------------------------------------


def record_schedule(
    graph: TaskGraph, scheduler="fuzz:0", n_workers: int = 1,
    executor_factory=ThreadedExecutor,
) -> Tuple[ScheduleRecord, ExecutionTrace]:
    """Execute ``graph`` recording the scheduler's pop order.

    With ``n_workers=1`` the recorded order is a pure function of the
    scheduler (reproducible); more workers record whatever interleaving
    the host produced — still a valid, replayable schedule.
    ``executor_factory`` picks the substrate — any callable accepting
    ``(n_workers, scheduler)``, e.g. :class:`ThreadedExecutor` (default)
    or :class:`~repro.runtime.mpexec.MultiprocessExecutor`.
    """
    recording = RecordingScheduler(resolve_scheduler(scheduler, n_workers))
    trace = executor_factory(n_workers, recording).run(graph)
    return recording.record(), trace


def replay_schedule(
    graph: TaskGraph, record: ScheduleRecord, n_workers: int = 1,
    executor_factory=ThreadedExecutor,
) -> ExecutionTrace:
    """Re-execute ``graph`` releasing tasks exactly in ``record`` order."""
    if len(record.order) != len(graph):
        raise ValueError(
            f"schedule records {len(record.order)} tasks, graph has {len(graph)}"
        )
    return executor_factory(n_workers, ReplayScheduler(record)).run(graph)


@dataclass
class FuzzMismatch:
    """One fuzz seed whose results diverged from the reference schedule."""

    seed: int
    arrays: List[str]


@dataclass
class FuzzSweepResult:
    """Outcome of a multi-seed schedule-fuzzing sweep."""

    seeds: List[int]
    mismatches: List[FuzzMismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"fuzz OK: {len(self.seeds)} seeds bitwise-identical to reference"
        bad = ", ".join(str(m.seed) for m in self.mismatches)
        return f"fuzz FAILED: seeds [{bad}] diverged from the reference schedule"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seeds": self.seeds,
            "reference_scheduler": "fifo",
            "mismatches": [
                {"seed": m.seed, "arrays": m.arrays} for m in self.mismatches
            ],
        }


def _result_fingerprint(result) -> Dict[str, bytes]:
    """Bitwise snapshot of params, per-chunk gradients and logits after a run."""
    out: Dict[str, bytes] = {}
    if result.params is not None:
        for name, arr in result.params.arrays():
            out[f"params.{name}"] = arr.tobytes()
    if result.chunks:
        for mb, chunk in enumerate(result.chunks):
            if chunk.grads is not None:
                for name, arr in chunk.grads.arrays():
                    out[f"chunk{mb}.grads.{name}"] = arr.tobytes()
            for t, arr in enumerate(chunk.logits):
                out[f"chunk{mb}.logits.{t}"] = arr.tobytes()
    return out


def fuzz_equivalence_sweep(
    make_build: Callable[[], object],
    seeds: Iterable[int],
    *,
    n_workers: int = 1,
    executor_factory=ThreadedExecutor,
) -> FuzzSweepResult:
    """Run ``make_build()`` once per schedule and compare results bitwise.

    ``make_build`` must return a *freshly built* functional graph each
    call (fresh params from the same deterministic init), so every
    schedule starts from identical state.  The FIFO reference schedule
    fixes the expected bits; every fuzz seed must reproduce them exactly
    — the dataflow-determinism claim of the paper, asserted rather than
    assumed.  The reference always runs threaded; the fuzzed
    legs run on ``executor_factory`` (any ``(n_workers, scheduler)``
    callable), so passing
    :class:`~repro.runtime.mpexec.MultiprocessExecutor` additionally
    asserts cross-substrate determinism.
    """
    seeds = list(seeds)
    reference = make_build()
    ThreadedExecutor(n_workers, "fifo").run(reference.graph)
    expected = _result_fingerprint(reference)

    mismatches: List[FuzzMismatch] = []
    for seed in seeds:
        result = make_build()
        executor_factory(n_workers, f"fuzz:{seed}").run(result.graph)
        got = _result_fingerprint(result)
        bad = sorted(
            name
            for name in expected
            if got.get(name) != expected[name]
        )
        if bad or set(got) != set(expected):
            bad = bad or sorted(set(got) ^ set(expected))
            mismatches.append(FuzzMismatch(seed=seed, arrays=bad))
    return FuzzSweepResult(seeds=seeds, mismatches=mismatches)


# ---------------------------------------------------------------------------
# Compiled-plan auditing
# ---------------------------------------------------------------------------


def check_plan(graph: TaskGraph, plan) -> DependenceReport:
    """Audit a compiled plan against the graph's *declared* dependences.

    Replay safety rests on indegree gating over ``plan.successors`` — a
    declared edge ``a → b`` is enforced at replay time iff the transitive
    closure of the plan's (reduced) edge set contains a path ``a → … → b``.
    The release *order* alone is not sufficient: a predecessor popped
    earlier may still be running on another worker.  Three audits:

    * ``plan_structure_mismatch`` — task count, name drift, or a release
      order that is not a permutation of the graph's tids;
    * ``plan_order_violation`` — the release order is not topological over
      the plan's own edges (replay could stall: a task released before one
      of its plan-predecessors);
    * ``plan_dependence_violation`` — a declared dependence not covered by
      the closure of the plan's edges (two conflicting tasks could overlap).

    ``plan_edges_checked`` counts the declared edges audited for closure
    cover.
    """
    report = DependenceReport(n_tasks=len(graph))
    n = len(graph)
    try:
        plan.validate(graph)
        if sorted(plan.order) != list(range(n)):
            raise ValueError("release order is not a permutation of the graph's tids")
        for a, succs in enumerate(plan.successors):
            for b in succs:
                if not 0 <= b < n:
                    raise ValueError(f"plan edge {a} → {b} names an unknown tid")
    except ValueError as exc:
        report.findings.append(
            DependenceFinding(kind="plan_structure_mismatch", task="<plan>", detail=str(exc))
        )
        return report

    def pair_finding(kind: str, a: int, b: int, detail: str) -> DependenceFinding:
        return DependenceFinding(
            kind=kind, tid=a, task=graph.tasks[a].name,
            other_tid=b, other=graph.tasks[b].name, detail=detail,
        )

    pos = {tid: i for i, tid in enumerate(plan.order)}
    for a, succs in enumerate(plan.successors):
        for b in succs:
            if pos[a] >= pos[b]:
                report.findings.append(pair_finding(
                    "plan_order_violation", a, b,
                    f"{graph.tasks[b].name} (tid {b}) is released at step "
                    f"{pos[b]}, before its plan-predecessor "
                    f"{graph.tasks[a].name} (tid {a}, step {pos[a]})",
                ))

    desc = descendants_bitsets(plan.successors)
    for a in range(n):
        for b in graph.successors[a]:
            report.plan_edges_checked += 1
            if not (desc[a] >> b) & 1:
                report.findings.append(pair_finding(
                    "plan_dependence_violation", a, b,
                    f"declared dependence {graph.tasks[a].name} → "
                    f"{graph.tasks[b].name} has no covering path in the "
                    "plan's edge set — replay may overlap them",
                ))
    return report


def replay_plan(graph: TaskGraph, plan, n_workers: int = 1) -> ExecutionTrace:
    """Execute ``graph`` from a compiled plan, auditing it first.

    A failed :func:`check_plan` raises :class:`RaceError` before any
    payload runs.  The replay runs the payloads on the simulated executor
    (the one that replays plans) with ``n_workers`` cores of the machine
    :func:`~repro.compile.compile_graph` prices by default; the returned
    value is its :class:`~repro.runtime.trace.ExecutionTrace`.
    """
    report = check_plan(graph, plan)
    if not report.ok:
        raise RaceError(report)
    sim = SimulatedExecutor(xeon_8160_2s(), n_cores=n_workers, execute_payloads=True)
    return sim.run(graph, plan=plan)


def plan_equivalence_check(
    make_build: Callable[[], object], *, n_workers: int = 1
) -> List[str]:
    """Compiled-plan replay vs a dynamic schedule, compared bitwise.

    Builds the graph twice from identical deterministic state, runs the
    reference dynamically under FIFO on ``n_workers`` threads and the
    second build from a freshly compiled plan (:func:`replay_plan`), and
    returns the names of arrays whose bits differ (empty list =
    equivalent) — the compiled-path counterpart of
    :func:`fuzz_equivalence_sweep`.
    """
    # Late import: repro.compile sits above the runtime in the layering.
    from repro.compile import compile_graph

    reference = make_build()
    ThreadedExecutor(n_workers, "fifo").run(reference.graph)
    expected = _result_fingerprint(reference)

    result = make_build()
    plan = compile_graph(result.graph, n_workers=n_workers)
    replay_plan(result.graph, plan, n_workers=n_workers)
    got = _result_fingerprint(result)
    bad = sorted(name for name in expected if got.get(name) != expected[name])
    if set(got) != set(expected):
        bad = sorted(set(bad) | (set(got) ^ set(expected)))
    return bad
