"""Figure drivers (Figs. 3-8) and the §IV-B granularity/memory studies.

Each function measures one figure on the simulated machine and returns it
as a section of suite ``paper`` (:mod:`repro.harness.paper`):
``{"headers", "rows", ...}`` — the series the figure shows, unrounded, plus
the scalars its shape criteria (DESIGN.md §4) read.  The grids are
arguments; :data:`repro.harness.paper.GRIDS` states the two every section
is run at, and suite ``paper`` of :mod:`repro.harness.ledger` holds the
criteria as bars.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Sequence

from repro.analysis.granularity import granularity_stats
from repro.analysis.memory import working_set_stats
from repro.harness.measure import make_spec
from repro.harness.simtime import engine_times, simulated_batch_time
from repro.models.spec import BRNNSpec
from repro.simarch.metrics import ipc_histogram, mpki_histogram
from repro.simarch.presets import xeon_8160_2s


def blstm_spec(layers: int, input_size: int = 256, hidden: int = 256) -> BRNNSpec:
    return make_spec("lstm", input_size, hidden, layers)


def fig3_minibatch_scaling(
    layers: int, seq_len: int, batch: int,
    core_counts: Sequence[int], mbs_list: Sequence[int],
) -> Dict:
    """B-Par speed-up against B-Par-mbs:1 on one core, per mbs and core
    count (``mbs_list`` holds 1, 2 and 8; the paper's batch of 120 divides
    evenly by each of its mbs values)."""
    spec = blstm_spec(layers)
    base = simulated_batch_time(spec, seq_len, batch, mbs=1, n_cores=1).seconds
    series = {
        mbs: [base / simulated_batch_time(spec, seq_len, batch, mbs=mbs, n_cores=c).seconds
              for c in core_counts]
        for mbs in mbs_list
    }
    return {
        "headers": ["mbs"] + [f"{c}c" for c in core_counts],
        "rows": [[f"mbs:{m}"] + series[m] for m in mbs_list],
        "mbs1_speedup_at_1_core": series[1][0],
        "mbs1_speedup_at_max_cores": series[1][-1],
        "mbs1_best_speedup": max(series[1]),
        "mbs2_speedup_at_max_cores": series[2][-1],
        "mbs8_speedup_at_max_cores": series[8][-1],
        "mbs8_best_speedup": max(series[8]),
        "top_mbs_best_speedup": max(series[max(series)]),
    }


def fig4_core_scaling(
    layers: int, seq_len: int, batch: int, mbs: int, core_counts: Sequence[int],
) -> Dict:
    """Keras, B-Seq, PyTorch and B-Par batch training time (s) vs core
    count (``core_counts`` holds 8; its last entry is the whole machine)."""
    spec = blstm_spec(layers)
    points = [engine_times(spec, seq_len, batch, c, mbs=mbs) for c in core_counts]
    keras, bseq, pytorch, bpar = (
        [p[e] for p in points] for e in ("keras", "bseq", "pytorch", "bpar"))
    at8 = list(core_counts).index(8)
    return {
        "headers": ["engine"] + [f"{c}c" for c in core_counts],
        "rows": [["Keras"] + keras, ["B-Seq"] + bseq, ["PyTorch"] + pytorch,
                 ["B-Par"] + bpar],
        "bpar_best_core_count": core_counts[bpar.index(min(bpar))],
        "bseq_best_s": min(bseq),
        "bseq_s_at_8_cores": bseq[at8],
        "bseq_over_keras_at_8_cores": bseq[at8] / keras[at8],
        "keras_over_bpar_at_max_cores": keras[-1] / bpar[-1],
        "pytorch_over_bpar_at_max_cores": pytorch[-1] / bpar[-1],
        "core_counts_where_pytorch_beats_keras": sum(p < k for p, k in zip(pytorch, keras)),
    }


def fig5_hidden_batch(
    layers_list: Sequence[int], batches: Sequence[int], hiddens: Sequence[int],
    seq_len: int, n_cores: int,
) -> Dict:
    """Single-batch training time (s) per engine over batch × hidden grids."""
    rows = []
    for layers in layers_list:
        for hidden in hiddens:
            spec = blstm_spec(layers, hidden=hidden)
            for batch in batches:
                t = engine_times(spec, seq_len, batch, n_cores)
                rows.append([layers, hidden, batch, t["keras"], t["pytorch"], t["bseq"],
                             t["bpar"], t["keras"] / t["bpar"], t["pytorch"] / t["bpar"]])
    return {
        "headers": ["L", "hidden", "batch", "Keras s", "PyTorch s", "B-Seq s",
                    "B-Par s", "K/BP", "P/BP"],
        "rows": rows,
        "min_speedup_vs_keras": min(r[7] for r in rows),
        "max_speedup_vs_keras": max(r[7] for r in rows),
        "min_speedup_vs_pytorch": min(r[8] for r in rows),
        "rows_where_pytorch_beats_keras": sum(r[4] < r[3] for r in rows),
    }


def fig6_layers(layer_counts: Sequence[int], seq_len: int, batch: int, n_cores: int) -> Dict:
    """Training *and* inference batch time (s) per engine vs layer count."""
    engines = ("keras", "pytorch", "bseq", "bpar")
    points = [
        {tag: engine_times(blstm_spec(layers), seq_len, batch, n_cores, training=training)
         for tag, training in (("train", True), ("infer", False))}
        for layers in layer_counts
    ]
    train = [p["train"]["keras"] / p["train"]["bpar"] for p in points]
    return {
        "headers": ["L"] + [f"{e} {tag}" for tag in ("train", "infer") for e in engines]
                   + ["K/BP train"],
        "rows": [[layers] + [p[tag][e] for tag in ("train", "infer") for e in engines] + [s]
                 for layers, p, s in zip(layer_counts, points, train)],
        "min_train_speedup_vs_keras": min(train),
        "min_train_speedup_vs_pytorch": min(
            p["train"]["pytorch"] / p["train"]["bpar"] for p in points),
        "min_infer_speedup_vs_keras": min(
            p["infer"]["keras"] / p["infer"]["bpar"] for p in points),
        "max_bpar_infer_over_train": max(
            p["infer"]["bpar"] / p["train"]["bpar"] for p in points),
        "train_speedup_shallowest": train[0],
        "train_speedup_deepest": train[-1],
    }


def fig7_locality(
    layers: int, input_size: int, hidden: int, seq_len: int, batch: int, mbs: int,
    n_cores: int,
) -> Dict:
    """Batch time and IPC / L3-MPKI time shares per band with and without
    locality-aware scheduling.  Paper setting: 8-layer BLSTM, 31.7 M
    parameters (input 64, hidden 512), which exceeds the cache hierarchy."""
    machine = xeon_8160_2s()
    spec = blstm_spec(layers, input_size=input_size, hidden=hidden)
    aware, oblivious = (
        simulated_batch_time(spec, seq_len, batch, mbs=mbs, n_cores=n_cores,
                             machine=machine, scheduler=scheduler)
        for scheduler in ("locality", "fifo"))
    ipc = [ipc_histogram(run.trace, machine) for run in (aware, oblivious)]
    mpki = [mpki_histogram(run.trace) for run in (aware, oblivious)]

    def shares(pair, lo, hi):
        return {"aware": pair[0].fraction_in(lo, hi), "oblivious": pair[1].fraction_in(lo, hi)}

    return {
        "headers": ["band", "aware %", "oblivious %"],
        "rows": [[f"{name} {label}", 100 * a, 100 * o]
                 for name, pair in (("IPC", ipc), ("MPKI", mpki))
                 for (label, a), (_, o) in zip(pair[0].rows(), pair[1].rows())],
        "time_aware_s": aware.seconds,
        "time_oblivious_s": oblivious.seconds,
        "improvement": 1.0 - aware.seconds / oblivious.seconds,
        "ipc_top": shares(ipc, 1.5, 2.5),
        "mpki_high": shares(mpki, 10, float("inf")),
        "mpki_low": shares(mpki, 0, 5),
    }


def fig8_next_char(
    layer_counts: Sequence[int], batches: Sequence[int], hiddens: Sequence[int],
    seq_len: int, n_cores: int,
) -> Dict:
    """Many-to-many next-character prediction over a 31-symbol vocabulary:
    B-Par vs Keras, per cell type."""
    out: Dict = {"headers": ["cell", "L", "hidden", "batch", "Keras s", "B-Par s",
                             "speed-up"], "rows": []}
    for cell in ("lstm", "gru"):
        best: Dict[int, float] = {}  # layers -> maximum speed-up
        rows: List[List] = []
        for layers in layer_counts:
            for hidden in hiddens:
                spec = BRNNSpec(cell=cell, input_size=31, hidden_size=hidden, num_layers=layers,
                                merge_mode="sum", head="many_to_many", num_classes=31)
                for batch in batches:
                    t = engine_times(spec, seq_len, batch, n_cores, engines=("keras", "bpar"))
                    rows.append([cell, layers, hidden, batch, t["keras"], t["bpar"],
                                 t["keras"] / t["bpar"]])
                    best[layers] = max(best.get(layers, 0.0), rows[-1][-1])
        out["rows"] += rows
        out[cell] = {
            "min_speedup": min(r[-1] for r in rows),
            "max_speedup": max(best.values()),
            "max_speedup_shallowest": best[min(best)],
            "max_speedup_deepest": best[max(best)],
        }
    return out


def granularity_study(
    layers: int, input_size: int, hidden: int, seq_len: int, batch: int, mbs: int,
    n_cores: int, batches_per_epoch: int,
) -> Dict:
    """Task-granularity statistics plus the per-epoch task count.

    Paper setting: BLSTM seq 100, batch 128, input 64, hidden 512; TIDIGITS
    has ≈12,549 training utterances → 98 batches of 128 per epoch.
    """
    spec = blstm_spec(layers, input_size=input_size, hidden=hidden)
    timing = simulated_batch_time(spec, seq_len, batch, mbs=mbs, n_cores=n_cores)
    stats = granularity_stats(timing.trace)
    per_epoch = stats.num_tasks * batches_per_epoch
    # layer 0 fuses (input + hidden) x 4·hidden weights plus the bias: the
    # paper's reported average LSTM-cell working set
    (w_rows, w_cols), (b_len,) = spec.cell_param_shapes(0)
    weight_bytes = (w_rows * w_cols + b_len) * 4
    return {
        "headers": ["quantity", "value"],
        "rows": [*map(list, stats.rows()),
                 ["tasks per epoch", f"{per_epoch}  (paper: 368,240)"],
                 ["layer weight matrix", f"{weight_bytes / 1e6:.2f} MB  (paper: 4.71 MB)"]],
        **asdict(stats),
        "tasks_per_epoch": per_epoch,
        "layer0_weight_bytes": weight_bytes,
    }


def memory_study(layers: int, seq_len: int, batch: int, mbs: int, n_cores: int) -> Dict:
    """Working set barrier-free vs with per-layer barriers (§IV-B)."""
    free, barred = (
        working_set_stats(simulated_batch_time(
            blstm_spec(layers), seq_len, batch, mbs=mbs, n_cores=n_cores,
            barrier_free=barrier_free).trace)
        for barrier_free in (True, False))
    return {
        "headers": ["variant", "avg live tasks", "avg live WSS MB"],
        "rows": [[name, s.mean_live_tasks, s.mean_live_wss_bytes / 1e6]
                 for name, s in (("barrier-free", free), ("with barriers", barred))],
        "barrier_free_live_tasks": free.mean_live_tasks,
        "barriered_live_tasks": barred.mean_live_tasks,
        "live_task_ratio": free.mean_live_tasks / barred.mean_live_tasks,
        "live_wss_ratio": free.mean_live_wss_bytes / barred.mean_live_wss_bytes,
    }
