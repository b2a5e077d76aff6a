"""The bench ledger: one table of gated suites, one evaluator, one runner.

Every gated measurement of the repo is a row of :data:`SUITES`: the
function that measures it, the keyword sets of its two sizes (``smoke``
for CI, ``record`` for the committed ``benchmarks/baselines/BENCH_*.json``),
the schema of its ``results`` block, and its *bars* — the who-wins claims
the measurement must support.  :func:`check_report` is the only place a
bar is decided; ``python -m repro bench <suite>`` (:func:`run_suite`),
``python -m repro bench --check`` (:func:`check_files`) and the
``benchmarks/`` recorders all call it.

Report envelope::

    {
      "bench": "<suite>",           # selects the row of SUITES
      "schema_version": 1,
      "scope": "smoke" | "record",  # which size ran; absent means "record"
      "config": { ... },            # everything needed to re-run
      "results": { ... }            # what the schema and the bars read
    }
"""

from __future__ import annotations

import json
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.compilebench import run_compile_bench
from repro.harness.fleetbench import run_fleet_bench
from repro.harness.fusionbench import MODES, run_fusion_bench
from repro.harness.mpbench import REGIMES, run_multiproc_bench
from repro.obs.report import run_obs_report

SCHEMA_VERSION = 1
SCOPES = ("smoke", "record")
BASELINE_DIR = "benchmarks/baselines"

_NUM = (int, float)
_ENVELOPE = [("bench", str), ("schema_version", int), ("config", dict),
             ("results", dict)]
_OPS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le,
    "<": operator.lt, "==": operator.eq,
}

#: One side of a bar: a constant, a dotted path into ``results``
#: (``"a.b.*"`` sums the values of the dict at ``a.b``), or a tuple of
#: paths whose values are added.
Term = Union[int, float, bool, list, str, Tuple[str, ...]]
Schema = Sequence[Tuple[str, Union[type, Tuple[type, ...]]]]


@dataclass(frozen=True)
class Bar:
    """One row: ``lhs op rhs * slack`` must hold over ``results``."""

    lhs: Term
    op: str
    rhs: Term
    why: str = ""
    scopes: Tuple[str, ...] = SCOPES
    #: a parallel speed-up claim: waived (with a notice) when the report
    #: was recorded on a host with ``results.host_cores < 2``
    multicore: bool = False
    slack: float = 1.0

    @property
    def label(self) -> str:
        def show(term: Term) -> str:
            return " + ".join(term) if isinstance(term, tuple) else str(term)

        factor = f" * {self.slack}" if self.slack != 1.0 else ""
        return f"{show(self.lhs)} {self.op} {show(self.rhs)}{factor}"


@dataclass(frozen=True)
class Suite:
    """One row of the ledger (see the module docstring)."""

    #: ``measure(**size) -> {"config", "results"}``; ``None`` for reports
    #: another command writes (``serve-bench``/``analyze`` with ``--output``)
    measure: Optional[Callable[..., Dict]]
    schema: Schema
    bars: Sequence[Bar]
    smoke: Dict
    record: Dict


def _suite(measure, *, schema, bars, timed=(), smoke=None, record=None) -> Suite:
    """A :class:`Suite` whose ``summarize_times`` blocks at the ``timed``
    paths get their five schema entries and two sanity bars each."""
    timing_schema = [
        (f"{path}.{key}", int if key == "n" else _NUM)
        for path in timed
        for key in ("median_s", "p95_s", "mean_s", "min_s", "n")
    ]
    timing_bars = [
        bar
        for path in timed
        for bar in (
            Bar(f"{path}.median_s", ">", 0),
            Bar(f"{path}.median_s", "<=", f"{path}.p95_s"),
        )
    ]
    return Suite(measure, [*timing_schema, *schema], [*timing_bars, *bars],
                 smoke or {}, record or {})


def _numbers(prefix: str, *keys: str) -> Schema:
    return [(f"{prefix}.{key}", _NUM) for key in keys]


def _accounting(section: str, total: str = "requests") -> List[Bar]:
    """Every request ends as completed or shed with a reason."""
    return [
        Bar((f"{section}.completed", f"{section}.shed"), "==", f"{section}.{total}",
            "request accounting does not add up"),
        Bar(f"{section}.shed_reasons.*", "==", f"{section}.shed",
            "shed_reasons does not sum to shed"),
    ]


#: the paper-scale BLSTM shape (spectrogram-like input ≫ hidden), where
#: the hoisted GEMM pays even on few-core hosts; smoke runs shrink it
_PAPER_SHAPE = dict(
    cell="lstm", input_size=1024, hidden=128, layers=2,
    seq_len=100, batch=32, head="many_to_one",
)
_SMOKE_SHAPE = dict(
    cell="lstm", input_size=256, hidden=32, layers=2,
    seq_len=24, batch=8, mbs=1, iters=3,
)

_FLEET_SECTIONS = (
    "single_at_single_rate", "single_at_fleet_rate",
    "fleet_at_fleet_rate", "bursty_overload",
)
_POLICIES = ("locality", "fifo")
_MODES = tuple(MODES)
#: one lever apart, rung by rung: kernel, hoisting, tile (``auto`` hoists a
#: subset of what ``proj`` does)
_RUNGS = ("off", "gates", "proj", "tiled")
_REGIMES = tuple(name for name, _, _ in REGIMES)

SUITES: Dict[str, Suite] = {
    "fusion": _suite(
        run_fusion_bench,
        timed=(*(f"threaded.{m}" for m in _MODES),
               "threaded.train.gates", "threaded.train.proj"),
        smoke=_SMOKE_SHAPE,
        record=dict(_PAPER_SHAPE, iters=9, warmup=2),
        schema=[
            *_numbers("threaded.speedup_median", *_MODES[1:]),
            *_numbers("threaded.hoist_speedup_median", "proj", "auto"),
            *_numbers("threaded.train_speedup_median", "proj"),
            ("host_cores", int),
            *(entry for m in _MODES for entry in _numbers(
                f"sim.{m}", "batch_s", "critical_path_flops", "critical_path_s",
                "n_tasks", "cp_ratio")),
            *_numbers("sim", "critical_path_reduction", "sim_speedup"),
            *_numbers(
                "analysis", "wavefront_width", "wavefront_avg_parallelism",
                "layered_width", "layered_avg_parallelism",
                "lint_findings", "analyzer_findings"),
            ("flops_conserved", bool),
        ],
        bars=[
            # kernel: the stacked gate GEMM against the per-gate reference
            Bar("threaded.speedup_median.gates", ">=", 1.0, scopes=("record",)),
            # hoisting, against ``gates``.  Laptop-scale smoke shapes carry
            # no speed-up claim (that is what "auto" is for)
            Bar("sim.critical_path_reduction", ">", 0.0,
                "hoisting must strictly shorten the flop-weighted chain"),
            Bar("sim.critical_path_reduction", "<", 1.0),
            Bar("threaded.hoist_speedup_median.proj", ">=", 1.2, scopes=("record",)),
            # auto fuses a subset of layers: held to no-regression only
            Bar("threaded.hoist_speedup_median.auto", ">=", 1.0, scopes=("record",)),
            # a training step, where hoisting also takes the weight-gradient
            # GEMMs off the chain: 2.2-2.4x on the recording 2-core host
            Bar("threaded.train_speedup_median.proj", ">=", 1.7,
                "a hoisted training step no longer beats the per-step graph",
                scopes=("record",), multicore=True),
            Bar("sim.sim_speedup", ">", 1.0, scopes=("record",)),
            # tile, and the three levers together against ``off``
            Bar("threaded.speedup_median.tiled", ">=", 1.5,
                "the three levers together no longer beat the unfused baseline",
                scopes=("record",)),
            Bar("sim.tiled.cp_ratio", "<", 0.686,
                "the duration-weighted critical path no longer clears the "
                "fused-projection bar"),
            # monotone rung by rung; at smoke shapes hoisting can nudge
            # adjacent rungs within a few percent of each other
            *(
                Bar(f"sim.{rung}.cp_ratio", "<=", f"sim.{below}.cp_ratio",
                    "cp_ratio not monotone along the rungs",
                    scopes=(scope,), slack=slack)
                for scope, slack in (("record", 1.0), ("smoke", 1.05))
                for below, rung in zip(_RUNGS, _RUNGS[1:])
            ),
            Bar("sim.tiled.n_tasks", "<", "sim.gates.n_tasks",
                "tiled task count did not shrink"),
            Bar("analysis.lint_findings", "==", 0,
                "tiled declarations are no longer exact"),
            Bar("analysis.analyzer_findings", "==", 0,
                "fused tasks flagged (over-declaration?)"),
            Bar("analysis.wavefront_width", ">", "analysis.layered_width",
                "the diagonal is gone"),
            Bar("flops_conserved", "==", True,
                "the per-gate GEMM flop split no longer sums to the stacked total"),
        ],
    ),
    "compile": _suite(
        run_compile_bench,
        timed=("overhead.dynamic_fifo", "overhead.dynamic_locality",
               "overhead.replay"),
        smoke=dict(hidden=32, layers=2, input_size=16, seq_len=20, batch=8,
                   mbs=2, iters=8, repeats=3),
        # a serving-sized inference graph whose dependence bookkeeping is
        # large enough to time reliably
        record=dict(cell="lstm", input_size=64, hidden=128, layers=2,
                    seq_len=50, batch=16, head="many_to_one",
                    iters=15, warmup=2),
        schema=[
            ("overhead.reduction_ratio", _NUM),
            *_numbers(
                "plan", "n_tasks", "n_edges_declared", "n_edges_reduced",
                "n_edges_redundant", "redundant_edge_fraction",
                "critical_path_s", "est_makespan_s", "compile_time_s"),
            ("serving.n_batches", int),
            ("serving.n_shapes", int),
            ("serving.warm_hit_rate", _NUM),
            *((f"serving.cache.{key}", int) for key in (
                "hits", "misses", "evictions", "compiles", "size", "capacity")),
            *_numbers("serving.cache", "hit_rate", "last_compile_s"),
            ("equivalence.bitwise_identical", bool),
            ("equivalence.mismatched_arrays", list),
        ],
        bars=[
            Bar("overhead.reduction_ratio", ">", 1.0,
                "plan replay no longer beats dynamic dependence resolution"),
            Bar(("plan.n_edges_reduced", "plan.n_edges_redundant"), "==",
                "plan.n_edges_declared"),
            Bar("plan.redundant_edge_fraction", ">", 0.0,
                "the bench graph should give the transitive reduction real work"),
            Bar("plan.redundant_edge_fraction", "<", 1.0),
            Bar("plan.compile_time_s", ">=", 0),
            Bar("serving.warm_hit_rate", "==", 1.0,
                "a repeated shape missed the plan cache"),
            Bar("serving.cache.compiles", "==", "serving.n_shapes",
                "each shape must compile exactly once"),
            Bar("equivalence.bitwise_identical", "==", True,
                "replay diverged from the dynamic schedule"),
        ],
    ),
    "multiproc": _suite(
        run_multiproc_bench,
        timed=tuple(f"regimes.{r}.{sub}"
                    for r in _REGIMES for sub in ("threaded", "process")),
        smoke=dict(cell="gru", input_size=64, hidden=32, layers=2,
                   seq_len=16, batch=8, mbs=2, iters=2),
        record=dict(_PAPER_SHAPE, mbs=4, iters=3, warmup=1),
        schema=[
            *((f"regimes.{r}.speedup_median", _NUM) for r in _REGIMES),
            *((f"regimes.{r}.bitwise_identical", bool) for r in _REGIMES),
            ("bitwise_identical", bool),
            ("leaked_segments", int),
            ("host_cores", int),
        ],
        bars=[
            *(Bar(f"regimes.{r}.bitwise_identical", "==", True,
                  "the process executor computed different bits")
              for r in _REGIMES),
            Bar("bitwise_identical", "==", True),
            Bar("leaked_segments", "==", 0,
                "a /dev/shm segment survived the run"),
            Bar("regimes.gil_bound.speedup_median", ">=", 1.3,
                "worker processes no longer beat the GIL-serialised threads",
                multicore=True),
            Bar("regimes.default.speedup_median", ">=", 0.9,
                "shared-memory transport overhead exceeds the budget",
                multicore=True),
        ],
    ),
    "fleet": _suite(
        run_fleet_bench,
        # deterministic (simulated clock), so CI runs the recorded size
        smoke=dict(duration_s=5.0),
        record=dict(duration_s=5.0),
        schema=[
            *_numbers("calibration", "service_full_s", "capacity_rps",
                      "single_rate_hz", "fleet_rate_hz", "slo_s", "rate_ratio"),
            *(
                (f"{section}.{key}", typ)
                for section in _FLEET_SECTIONS
                for key, typ in (
                    ("requests", int), ("completed", int), ("shed", int),
                    ("shed_reasons", dict), ("throughput_rps", _NUM),
                    ("attainment", _NUM), ("completed_attainment", _NUM),
                    ("late_completions", int), ("routing", dict),
                    ("warmup_compiled", int),
                )
            ),
            ("fleet_at_fleet_rate.warm_hit_rate", _NUM),
            *(
                (f"routers.{router}.{key}", typ)
                for router in ("hash", "least_loaded")
                for key, typ in (("compiles", int), ("warm_hit_rate", _NUM),
                                 ("warmup_compiled", int))
            ),
        ],
        bars=[
            Bar("calibration.rate_ratio", ">=", 3.0),
            Bar("single_at_single_rate.attainment", ">=", 0.99),
            Bar("single_at_fleet_rate.attainment", "<", 0.9,
                "a single replica sustains the fleet rate: no scaling measured"),
            Bar("fleet_at_fleet_rate.attainment", ">=", 0.99),
            Bar("fleet_at_fleet_rate.warm_hit_rate", ">=", 0.9),
            Bar("bursty_overload.shed", ">", 0, "admission control inert"),
            Bar("bursty_overload.completed_attainment", ">=", 0.99,
                "overload served late instead of shed"),
            Bar("bursty_overload.late_completions", "==", 0,
                "overload served late instead of shed"),
            Bar("routers.hash.compiles", "<", "routers.least_loaded.compiles",
                "shape affinity is not reducing compilation"),
            *(bar for section in _FLEET_SECTIONS for bar in _accounting(section)),
        ],
    ),
    "obs_overhead": _suite(
        run_obs_report,
        timed=("overhead.disabled", "overhead.enabled"),
        smoke=dict(n_cores=16, seq_len=30, batch=8, mbs=2, iters=7),
        record=dict(seq_len=100, batch=32, mbs=4, iters=9, warmup=2),
        schema=[
            ("overhead.overhead_ratio", _NUM),
            ("comparison.graph.n_tasks", int),
            *(
                entry
                for p in _POLICIES
                for entry in (
                    *_numbers(f"comparison.policies.{p}", "makespan_s", "parallel_efficiency",
                              "core_busy_fraction_mean", "core_busy_fraction_max"),
                    *((f"comparison.policies.{p}.counters.{key}", int) for key in (
                        "pushes", "pops", "hinted_pushes", "locality_hits",
                        "locality_misses", "steals", "starvation_stalls",
                        "queue_depth_max")),
                    *_numbers(f"comparison.policies.{p}.counters",
                              "locality_hit_rate", "queue_depth_mean"),
                )
            ),
        ],
        bars=[
            Bar("overhead.overhead_ratio", ">", 0),
            Bar("overhead.overhead_ratio", "<=", 1.02,
                "enabling metrics is no longer (near-)free", scopes=("record",)),
            # CI runners are noisy shared tenants: the committed baseline
            # records the ≤2 % claim, fresh smoke runs get tenancy slack
            Bar("overhead.overhead_ratio", "<=", 1.10,
                "enabling metrics is no longer (near-)free", scopes=("smoke",)),
            *(Bar(f"comparison.policies.{p}.counters.pops", "==", "comparison.graph.n_tasks",
                  "policies must run the same graph") for p in _POLICIES),
            Bar(f"comparison.policies.locality.counters.locality_hit_rate", ">=",
                f"comparison.policies.fifo.counters.locality_hit_rate",
                "locality accounting looks inverted"),
        ],
    ),
    # written by `analyze --output`
    "graph_analysis": _suite(
        None,
        schema=[
            ("graphlint.ok", bool),
            *((f"graphlint.{key}", int) for key in ("n_tasks", "n_edges", "n_regions")),
            ("graphlint.findings", list),
            ("parallelism.ok", bool),
            ("parallelism.findings", list),
            *_numbers(
                "parallelism.metrics", "n_tasks", "n_edges", "n_redundant_edges",
                "redundant_edge_fraction", "width", "span_tasks", "span_flops",
                "total_flops", "avg_parallelism", "dataflow_span_tasks",
                "serialization_debt"),
        ],
        bars=[
            Bar("graphlint.findings", "==", [], "the declared graph is unsound"),
            Bar("parallelism.findings", "==", [], "spurious inout serialisation"),
            Bar(f"parallelism.metrics.serialization_debt", "<=", 1.01,
                "the declared graph serialises beyond its dataflow"),
            Bar(f"parallelism.metrics.width", ">=", 1),
        ],
    ),
    # written by `serve-bench --output`
    "serving": _suite(
        None,
        schema=[
            *((f"requests.{key}", int) for key in ("total", "completed", "shed")),
            ("requests.shed_reasons", dict),
            ("throughput_rps", _NUM),
            ("elapsed_s", _NUM),
            *_numbers("latency_s", "p50", "p95", "p99", "mean"),
            ("batches.count", int),
            ("batches.size_histogram", dict),
            *_numbers("batches", "mean_size", "padding_overhead"),
            *_numbers("queue_depth", "mean", "max"),
        ],
        bars=[
            Bar("throughput_rps", ">", 0),
            Bar("latency_s.p50", "<=", "latency_s.p95"),
            Bar("latency_s.p95", "<=", "latency_s.p99"),
            *_accounting("requests", total="total"),
        ],
    ),
}


# -- reports at the boundary -----------------------------------------------------

def lookup(obj, dotted: str):
    """Resolve ``a.b.c`` through nested dicts; KeyError names the path."""
    for part in dotted.split("."):
        if not isinstance(obj, dict) or part not in obj:
            raise KeyError(dotted)
        obj = obj[part]
    return obj


def check_schema(obj, schema: Schema, label: str, errors: List[str]) -> None:
    """Append an error per missing/mistyped dotted path in ``schema``.

    ``bool`` is not accepted where a number is expected (it is an ``int``
    subclass), but schemas may demand ``bool`` explicitly.
    """
    for path, typ in schema:
        try:
            value = lookup(obj, path)
        except KeyError:
            errors.append(f"{label}: missing key {path!r}")
            continue
        wants_bool = typ is bool or (isinstance(typ, tuple) and bool in typ)
        if not wants_bool and isinstance(value, bool):
            errors.append(f"{label}: {path!r} has type bool")
        elif not isinstance(value, typ):
            errors.append(f"{label}: {path!r} has type {type(value).__name__}")


def load_report(path: str) -> Dict:
    """The JSON object at ``path``; ``ValueError`` naming the file when it
    is unreadable, not JSON, or not an object."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(report, dict):
        raise ValueError(f"{path}: report is not a JSON object")
    return report


def make_report(bench: str, config: Dict, results: Dict,
                scope: Optional[str] = None) -> Dict:
    """Wrap a measurement in the envelope (``scope`` omitted when None)."""
    report = {"bench": bench, "schema_version": SCHEMA_VERSION}
    if scope is not None:
        report["scope"] = scope
    report.update(config=config, results=results)
    return report


def write_report(path: str, report: Dict) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def baseline_path(bench: str) -> str:
    """Where a suite's committed record lives."""
    return os.path.join(BASELINE_DIR, f"BENCH_{bench}.json")


def finish(errors: Sequence[str], ok_lines: Sequence[str]) -> int:
    """Common exit protocol: stderr errors → 1, else print OKs → 0."""
    if errors:
        for err in errors:
            print(f"SCHEMA ERROR: {err}", file=sys.stderr)
        return 1
    for line in ok_lines:
        print(line)
    return 0


# -- the evaluator and the runner ------------------------------------------------

def _value(results: Dict, term: Term):
    if isinstance(term, tuple):
        return sum(_value(results, part) for part in term)
    if not isinstance(term, str):
        return term
    if term.endswith(".*"):
        return sum(lookup(results, term[:-2]).values())
    return lookup(results, term)


def check_report(report, origin: str = "<report>",
                 notices: Optional[List[str]] = None) -> List[str]:
    """Validate envelope, schema and bars; returns the failures (empty = OK).

    The suite comes from ``report["bench"]`` and the scope from
    ``report["scope"]`` (absent = ``record``).  Waived multicore bars are
    described in ``notices`` when the caller passes a list.
    """
    if not isinstance(report, dict):
        return [f"{origin}: report is not a JSON object"]
    errors: List[str] = []
    check_schema(report, _ENVELOPE, origin, errors)
    if errors:
        return errors
    suite = SUITES.get(report["bench"])
    if suite is None:
        return [f"{origin}: unknown bench {report['bench']!r} "
                f"(expected one of {sorted(SUITES)})"]
    if report["schema_version"] != SCHEMA_VERSION:
        errors.append(f"{origin}: schema_version {report['schema_version']!r} "
                      f"(expected {SCHEMA_VERSION})")
    scope = report.get("scope", "record")
    if scope not in SCOPES:
        errors.append(f"{origin}: scope {scope!r} (expected one of {SCOPES})")
    results = report["results"]
    check_schema(results, suite.schema, origin, errors)
    if errors:
        return errors

    single_core = any(bar.multicore for bar in suite.bars) and results["host_cores"] < 2
    if single_core and notices is not None:
        notices.append(
            f"{origin}: NOTICE — recorded on a {results['host_cores']}-core "
            "host; speed-up bars waived (parallel speed-up is unmeasurable "
            "on one core); schema, bitwise and leak invariants still gated"
        )
    for bar in suite.bars:
        if scope not in bar.scopes or (bar.multicore and single_core):
            continue
        try:
            lhs, rhs = _value(results, bar.lhs), _value(results, bar.rhs)
            held = _OPS[bar.op](lhs, rhs * bar.slack if bar.slack != 1.0 else rhs)
        except (KeyError, TypeError, AttributeError) as exc:
            errors.append(f"{origin}: bar {bar.label} cannot be evaluated "
                          f"({type(exc).__name__}: {exc})")
            continue
        if not held:
            reason = f" — {bar.why}" if bar.why else ""
            errors.append(f"{origin}: bar {bar.label} failed "
                          f"(observed {lhs!r} vs {rhs!r}){reason}")
    return errors


def run_suite(name: str, scope: str = "smoke") -> Dict:
    """Measure suite ``name`` at ``scope`` and return the full report."""
    suite = SUITES[name]
    point = suite.measure(**getattr(suite, scope))
    return make_report(name, point["config"], point["results"], scope)


def check_files(paths: Sequence[str]) -> int:
    """Gate report files: 0 when every one passes :func:`check_report`."""
    errors: List[str] = []
    notices: List[str] = []
    ok_lines = []
    for path in paths:
        try:
            report = load_report(path)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        failures = check_report(report, path, notices)
        errors.extend(failures)
        if not failures:
            ok_lines.append(
                f"{path}: {report['bench']} report OK "
                f"({report.get('scope', 'record')} bars)"
            )
    for notice in notices:
        print(notice, file=sys.stderr)
    return finish(errors, ok_lines)
