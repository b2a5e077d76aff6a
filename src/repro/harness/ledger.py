"""The bench ledger: one table of gated suites, one evaluator, one runner.

Every gated measurement of the repo is a row of :data:`SUITES` — the
paper's tables and figures (``paper``) and the dependence certificate
(``verify``) included: the function that measures it, the keyword sets of
its two sizes (``smoke`` for CI, ``record`` for the committed
``benchmarks/baselines/BENCH_*.json``), the schema of its ``results``
block, and its *bars* — the who-wins claims the measurement must support.
:func:`check_report` is the only place a bar is decided; ``python -m repro
bench <suite>`` (:func:`run_suite`) and ``python -m repro bench --check``
(:func:`check_files`) both call it.

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

from repro.analysis.verify import MUTATION_KINDS, full_family_matrix
from repro.harness.compilebench import run_compile_bench
from repro.harness.fleetbench import run_fleet_bench
from repro.harness.fusionbench import MODES, run_fusion_bench
from repro.harness.mpbench import REGIMES, run_multiproc_bench
from repro.harness.paper import SECTIONS, format_results, run_paper_suite
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
    #: ``results`` as text for a reader; ``bench SUITE`` prints it to stderr
    render: Optional[Callable[[Dict], str]] = None


def _suite(measure, *, schema, bars, timed=(), smoke=None, record=None,
           render=None) -> Suite:
    """A :class:`Suite` whose ``summarize_times`` blocks at the ``timed``
    paths get their five schema entries and two sanity bars each, and where
    a path a bar reads is a number unless ``schema`` says otherwise."""
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
    declared = {path for path, _ in schema}
    read = sorted({side for bar in bars for side in (bar.lhs, bar.rhs)
                   if isinstance(side, str) and side not in declared
                   and not side.endswith(".*")})
    return Suite(measure, [*timing_schema, *schema, *((path, _NUM) for path in read)],
                 [*timing_bars, *bars], smoke or {}, record or {}, render)


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



def _section_bars(section: str, *rows) -> List[Bar]:
    """Bars over one section of ``paper``: ``(lhs, op, rhs, why[, slack])``,
    string sides relative to the section."""
    def path(term):
        return f"{section}.{term}" if isinstance(term, str) else term

    return [Bar(path(lhs), op, path(rhs), why, slack=slack[0] if slack else 1.0)
            for lhs, op, rhs, why, *slack in rows]


_2X_MBS = "low mbs should saturate near 2x mbs (two direction chains per chunk)"
_ORDERED = "percentiles out of order"

#: every shape criterion of the paper's evaluation (DESIGN.md §4), by section
_PAPER_BARS: List[Bar] = [
    *(bar for table in ("table3", "table4") for bar in _section_bars(
        table,
        ("min_speedup_k_cpu", ">", 1.0, "B-Par lost to Keras-CPU on a row"),
        ("max_speedup_k_cpu", "<", 3.5, "beyond the paper's 1.17-2.34x band plus model slack"),
        ("min_speedup_p_cpu", ">", 1.0, "B-Par lost to PyTorch-CPU on a row"),
        ("rows_where_bseq_beats_bpar", "==", 0, "B-Seq beat B-Par"),
        ("rows_over_90m_params_where_p_gpu_ran", "==", 0,
         "PyTorch-GPU should hang above ~90M parameters (the paper's dashes)"),
    )),
    *_section_bars(
        "table3",
        ("max_speedup_p_cpu", "<", 12.0, "beyond the paper's 1.30-9.16x band plus model slack"),
        ("big_rows_where_bpar_beats_k_gpu", "==", 0,
         "Keras-GPU should win the batch >= 128, seq >= 100 rows"),
        ("tiny_rows_where_k_gpu_beats_bpar", "==", 0,
         "B-Par should beat Keras-GPU at batch 1, seq <= 10"),
        ("tiny_rows_where_p_gpu_beats_bpar", "==", 0,
         "B-Par should beat PyTorch-GPU at batch 1, seq <= 10"),
    ),
    Bar("table4.max_params_m", "<", "table3.max_params_m",
        "a GRU row should be cheaper than its LSTM row (3 vs 4 gates)"),
    *_section_bars(
        "fig3",
        ("mbs1_speedup_at_1_core", ">", 0.95, "mbs:1 on one core is the unit"),
        ("mbs1_speedup_at_1_core", "<", 1.05, "mbs:1 on one core is the unit"),
        ("mbs1_speedup_at_max_cores", "<", 3.0, _2X_MBS),
        ("mbs2_speedup_at_max_cores", "<", 6.0, _2X_MBS),
        ("top_mbs_best_speedup", ">", "mbs1_best_speedup",
         "high mbs should keep scaling where mbs:1 cannot", 3.0),
        ("mbs8_speedup_at_max_cores", ">=", "mbs8_best_speedup",
         "more cores should not hurt the high-mbs series badly", 0.8),
    ),
    *_section_bars(
        "fig4",
        ("bpar_best_core_count", "==", 48, "B-Par's best time should be on the whole machine"),
        ("bseq_best_s", ">", "bseq_s_at_8_cores",
         "B-Seq should saturate: at most 10% further gain beyond 8 cores", 0.9),
        ("bseq_over_keras_at_8_cores", ">", 0.5, "B-Seq ~ Keras at 8-16 cores"),
        ("bseq_over_keras_at_8_cores", "<", 2.0, "B-Seq ~ Keras at 8-16 cores"),
        ("keras_over_bpar_at_max_cores", ">", 1.5, "B-Par should clearly beat Keras at 48 cores"),
        ("pytorch_over_bpar_at_max_cores", ">", 2.0,
         "B-Par should clearly beat PyTorch at 48 cores"),
        ("core_counts_where_pytorch_beats_keras", "==", 0,
         "PyTorch should be the slowest CPU engine throughout"),
    ),
    *_section_bars(
        "fig5",
        ("min_speedup_vs_keras", ">", 1.0, "B-Par lost to Keras on a grid point"),
        ("min_speedup_vs_pytorch", ">", 1.0, "B-Par lost to PyTorch on a grid point"),
        ("max_speedup_vs_keras", "<", 7.0, "beyond the paper's 1.58-6.40x band"),
        ("rows_where_pytorch_beats_keras", "==", 0, "PyTorch should be slowest"),
    ),
    *_section_bars(
        "fig6",
        ("min_train_speedup_vs_keras", ">", 1.0, "B-Par training lost to Keras"),
        ("min_train_speedup_vs_pytorch", ">", 1.0, "B-Par training lost to PyTorch"),
        ("min_infer_speedup_vs_keras", ">", 1.0, "B-Par inference lost to Keras"),
        ("max_bpar_infer_over_train", "<", 1.0, "inference should be cheaper than training"),
        ("train_speedup_deepest", ">", "train_speedup_shallowest",
         "the B-Par advantage should grow with depth (barrier cost scales with layers)"),
    ),
    *_section_bars(
        "fig7",
        ("improvement", ">", 0, "locality-aware must not be slower"),
        ("ipc_top.aware", ">=", "ipc_top.oblivious", "less time in the top IPC bands"),
        ("mpki_high.aware", "<=", "mpki_high.oblivious", "more time in the high L3-MPKI bands"),
        ("mpki_low.aware", ">=", "mpki_low.oblivious", "less time in the low L3-MPKI bands"),
    ),
    *(bar for cell in ("lstm", "gru") for bar in _section_bars(
        f"fig8.{cell}",
        ("min_speedup", ">", 1.0, "B-Par lost to Keras on a configuration"),
        ("max_speedup", "<", 5.0, "speed-up implausibly high"),
        ("max_speedup_deepest", ">", "max_speedup_shallowest",
         "the maximum speed-up should grow with depth (paper: 1.54 -> 2.44)"),
    )),
    *_section_bars(
        "granularity",
        ("tasks_per_epoch", ">", 0.75 * 368_240, "not within 25% of the paper's 368,240"),
        ("tasks_per_epoch", "<", 1.25 * 368_240, "not within 25% of the paper's 368,240"),
        ("layer0_weight_bytes", ">=", 0.99 * 4.71e6, "the paper's 4.71 MB cell working set"),
        ("layer0_weight_bytes", "<=", 1.01 * 4.71e6, "the paper's 4.71 MB cell working set"),
        ("duration_min_s", "<", 1e-3, "the shortest tasks should be sub-millisecond"),
        ("duration_max_s", ">", 5e-3, "the longest tasks should take milliseconds"),
        ("duration_mean_s", ">", 1e-3, "paper mean 13.05 ms"),
        ("duration_mean_s", "<", 50e-3, "paper mean 13.05 ms"),
        ("duration_min_s", "<=", "duration_p50_s", _ORDERED),
        ("duration_p50_s", "<=", "duration_p95_s", _ORDERED),
        ("duration_p95_s", "<=", "duration_p99_s", _ORDERED),
        ("duration_p99_s", "<=", "duration_max_s", _ORDERED),
        ("cell_wss_mean_bytes", ">", "merge_wss_mean_bytes",
         "merge tasks should have far smaller working sets than cell tasks", 10.0),
        ("overhead_ratio", "<", 0.1, "runtime overhead should be >= 10x below in-task time"),
    ),
    *_section_bars(
        "memory",
        ("barriered_live_tasks", ">", 4.0, "~mbs tasks live under barriers (paper: 6 at mbs:6)"),
        ("barriered_live_tasks", "<", 9.0, "~mbs tasks live under barriers (paper: 6 at mbs:6)"),
        ("live_task_ratio", ">", 1.5, "barrier-free runs ~2-3x more tasks (paper: 16 vs 6)"),
        ("live_task_ratio", "<", 3.5, "barrier-free runs ~2-3x more tasks (paper: 16 vs 6)"),
        ("live_wss_ratio", ">", 1.5, "and a correspondingly larger live working set"),
        ("live_wss_ratio", "<", 3.5, "and a correspondingly larger live working set"),
    ),
    *_section_bars(
        "inference_latency",
        ("shortest.k_gpu_over_bpar", ">", 1.0, "the CPU should beat Keras-GPU at seq 2"),
        ("shortest.p_gpu_over_bpar", ">", 1.0, "the CPU should beat PyTorch-GPU at seq 2"),
        ("long_rows_where_p_gpu_beats_k_gpu", "==", 0,
         "eager per-timestep dispatch should lose to Keras-GPU from seq 50 up"),
        ("longest.k_gpu_over_bpar", "<", "shortest.k_gpu_over_bpar",
         "the GPU's relative position should improve with sequence length"),
    ),
    *_section_bars(
        "ablation_granularity",
        ("per_cell_tasks", ">", "fused_tasks", "per-cell tasking creates far more tasks", 20.0),
        ("cost_factor", ">=", 1.0, "fusing chains should not cost time"),
        ("cost_factor", "<", 2.0, "fine-grained tasking costs a modest constant factor only"),
    ),
    *_section_bars(
        "ablation_queue",
        ("max_deviation_vs_fifo", "<", 0.25, "a ready-queue policy diverges >25% from fifo"),
    ),
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
            # the same claims off the recorded point (fusionbench.simulated_sweeps)
            Bar("sweeps.tile.max_cp_ratio", "<", 1.0,
                "a tile size whose duration-weighted path is not below the unfused baseline"),
            Bar("sweeps.tile.max_task_ratio", "<", 1.0,
                "an amortising tile did not shrink the task count"),
            *(bar for c in ("lstm", "gru") for bar in (
                Bar(f"sweeps.cell.{c}.gates", "<=", 1.0),
                Bar(f"sweeps.cell.{c}.tiled", "<=", f"sweeps.cell.{c}.proj",
                    "cp_ratio not monotone along the rungs"))),
            Bar("sweeps.hoisting.min_critical_path_reduction", ">", 0.0,
                "hoisting must shorten the flop-weighted chain at every T, width and core count"),
            Bar("sweeps.hoisting.max_critical_path_reduction", "<", 1.0),
            Bar("sweeps.hoisting.min_sim_speedup", ">", 0.95,
                "fewer serial GEMM flops made a simulated batch slower"),
            Bar("sweeps.chunked.max_lint_findings", "==", 0,
                "tiled declarations are no longer exact at every chunking"),
            Bar("sweeps.chunked.max_analyzer_findings", "==", 0),
            Bar("sweeps.chunked.min_width_gain", ">", 0,
                "the diagonal is gone at some chunking"),
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
            # attainment holds as the offered rate scales with the pool,
            # and the load spreads: every replica served something
            *(bar for n in (2, 4) for bar in (
                Bar(f"replica_sweep.r{n}.attainment", ">=", 0.99),
                Bar(f"replica_sweep.r{n}.replicas_used", "==", n))),
            # one engine at a rate that saturates an unbatched server
            Bar("batching.batched.throughput_rps", ">=",
                "batching.unbatched.throughput_rps",
                "dynamic batching no longer triples throughput", slack=3.0),
            Bar("batching.unbatched.shed", ">", "batching.unbatched.requests",
                "the unbatched server should saturate and shed", slack=0.2),
            Bar("batching.batched.completed", ">", "batching.batched.requests",
                "the batched server should keep up", slack=0.95),
            Bar("batching.batched.latency_p99_s", "<", "batching.unbatched.latency_p50_s",
                "batching should drain the queue faster than one-by-one service"),
            Bar("batching.batched.padding_overhead", "<", 0.25,
                "length bucketing no longer bounds the padding waste"),
            Bar("batching.bursty.requests", "==", "batching.bursty.offered",
                "a request left the accounting"),
            Bar("batching.bursty.queue_depth_max", "<=", 64, "the bounded queue overflowed"),
            Bar("batching.bursty.completed", ">", "batching.bursty.requests",
                "the server should survive bursts", slack=0.8),
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
    # the paper's tables, figures and studies on the simulated clock (harness.paper)
    "paper": _suite(
        run_paper_suite,
        smoke=dict(grid="smoke"),
        record=dict(grid="record"),
        render=format_results,
        schema=[(f"{name}.{key}", list) for name in SECTIONS for key in ("headers", "rows")],
        bars=_PAPER_BARS,
    ),
    # written by `analyze --verify --verify-output` (smoke: the 11-family diagonal)
    "verify": _suite(
        None,
        schema=[
            ("format", str),
            ("model.symbolic_parameters", list),
            ("families", list),
            ("mutations.all_detected", bool),
            *((f"mutations.{kind}.{key}", bool)
              for kind in MUTATION_KINDS for key in ("detected", "exact_pair")),
            ("cross_validation.entries", list),
            ("cross_validation.ok", bool),
            ("ok", bool),
        ],
        bars=[
            *(Bar("n_families", ">=", len(full_family_matrix()[::stride]),
                  "the certificate covers fewer families than the matrix",
                  scopes=(scope,))
              for scope, stride in (("record", 1), ("smoke", 7))),
            Bar("n_certified", "==", "n_families", "a family is not certified"),
            Bar("n_distinct_labels", "==", "n_families", "duplicate family labels"),
            Bar("n_size_isomorphic", "==", "n_families", "a size-isomorphism rebuild diverged"),
            Bar("min_pairs_proved", ">", 0, "an instance proved zero disjoint pairs"),
            Bar("min_plan_edges_checked", ">", 0, "an instance checked zero plan edges"),
            Bar("mutations.all_detected", "==", True),
            *(bar for kind in MUTATION_KINDS for bar in (
                Bar(f"mutations.{kind}.detected", "==", True, "a seeded defect went undetected"),
                Bar(f"mutations.{kind}.exact_pair", "==", True,
                    "the finding lacks an exact two-task offending pair"))),
            Bar("cross_validation.samples", ">=", 8,
                "too few configs replayed through the dynamic race checker"),
            Bar("cross_validation.ok", "==", True, "dynamic findings disagree with the proof"),
            Bar("cross_validation.max_findings", "==", 0,
                "a cross-validated config had dynamic findings"),
            Bar("cross_validation.min_observed_tasks", ">", 0,
                "a cross-validated config observed no tasks"),
            Bar("ok", "==", True),
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
