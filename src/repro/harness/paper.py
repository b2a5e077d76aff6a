"""The paper's evaluation as one measurement: suite ``paper`` of the ledger.

:data:`SECTIONS` lists Tables III-IV (:mod:`repro.harness.tables`), Figs.
3-8 and the §IV-B studies (:mod:`repro.harness.figures`) and the three
extras here (batch-1 inference latency, the granularity and ready-queue
ablations), each a function from a grid to ``{"headers", "rows", ...}``:
the series the paper's table or figure shows (unrounded) plus the derived
scalars the ledger's bars read.  :data:`GRIDS` holds the two sizes of every
section — ``smoke`` (what ``bench paper`` and the section commands run) and
``record`` (the paper's complete grids, ``BENCH_paper.json``).  Everything
runs on the simulated clock, so a report is a function of the source tree.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.baselines import keras_gpu_model, pytorch_gpu_model
from repro.harness import figures
from repro.harness.simtime import simulated_batch_time, simulated_graph_time
from repro.harness.tables import TABLE_CONFIGS, make_spec, table_section
from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.runtime.depgraph import TaskGraph
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import INTERLEAVED_HOME, RegionSpace
from repro.simarch.presets import xeon_8160_2s


def _inference_latency(seq_lens: Sequence[int], n_cores: int = 48) -> Dict:
    """Batch-1 inference latency of the Table III 256/256 BLSTM: B-Par on
    the CPU against the two GPU frameworks (the introduction's motivation)."""
    spec = make_spec("lstm", 256, 256)
    rows = []
    for seq in seq_lens:
        bpar = simulated_batch_time(spec, seq, 1, mbs=1, n_cores=n_cores, training=False)
        rows.append([seq, bpar.seconds * 1e3]
                    + [1e3 * gpu.batch_time(spec, seq, 1, training=False)
                       for gpu in (keras_gpu_model(), pytorch_gpu_model())])

    def ratios(row):
        return {"k_gpu_over_bpar": row[2] / row[1], "p_gpu_over_bpar": row[3] / row[1]}

    return {
        "headers": ["seq len", "B-Par CPU ms", "Keras-GPU ms", "PyTorch-GPU ms"],
        "rows": rows,
        "shortest": ratios(rows[0]),
        "longest": ratios(rows[-1]),
        "long_rows_where_p_gpu_beats_k_gpu": sum(r[3] < r[2] for r in rows if r[0] >= 50),
    }


def _fused_chain_graph(spec, seq_len: int, batch: int, mbs: int) -> TaskGraph:
    """Training graph with one task per (chunk, layer, direction, phase): the
    coarse alternative to B-Par's task per cell update (DESIGN.md §6)."""
    g, rs, isz, bc = TaskGraph(), RegionSpace(), 4, batch // mbs
    act_bytes = bc * spec.merged_size * isz * seq_len
    for mb in range(mbs):
        for phase, flops_fn in (("fwd", cell_fwd_flops), ("bwd", cell_bwd_flops)):
            for layer in range(spec.num_layers):
                lyr = spec.num_layers - 1 - layer if phase == "bwd" else layer
                for direction in ("f", "r"):
                    w = rs.get(("W", lyr, direction), 0)
                    w.home = INTERLEAVED_HOME
                    ins = [w]
                    if phase == "fwd" and lyr > 0:
                        ins.append(rs.get(("act", mb, lyr - 1, "fwd"), act_bytes, streaming=True))
                    if phase == "bwd":
                        ins.append(rs.get(("act", mb, lyr, "fwd"), act_bytes, streaming=True))
                        if lyr < spec.num_layers - 1:
                            ins.append(rs.get(("grad", mb, lyr + 1, "bwd"), act_bytes,
                                              streaming=True))
                    outs = [rs.get(("chain", mb, lyr, direction, phase),
                                   bc * spec.hidden_size * isz * seq_len, streaming=True)]
                    if direction == "r":  # both directions feed the layer act
                        slot = "act" if phase == "fwd" else "grad"
                        outs.append(rs.get((slot, mb, lyr, phase), 0))
                    g.add_task(
                        f"{phase}.chain[{mb}]L{lyr}{direction}", None, ins=ins, outs=outs,
                        flops=seq_len * flops_fn(spec, bc, lyr),
                        kind="cell" if phase == "fwd" else "cell_bwd",
                        # the chain sweeps the shared weight panel once per
                        # timestep, not once per task
                        meta={"reuse": seq_len * min(6.0, 1.0 + bc / 32.0)},
                    )
    return g


def _ablation_granularity(layers: int, seq_len: int, batch: int, mbs: int, n_cores: int) -> Dict:
    spec = figures.blstm_spec(layers)
    per_cell = simulated_batch_time(spec, seq_len, batch, mbs=mbs, n_cores=n_cores)
    fused = simulated_graph_time(SimulatedExecutor(xeon_8160_2s(), n_cores=n_cores),
                                 _fused_chain_graph(spec, seq_len, batch, mbs))
    return {
        "headers": ["variant", "tasks", "time s"],
        "rows": [["per-cell (B-Par)", per_cell.n_tasks, per_cell.seconds],
                 ["fused per-layer", fused.n_tasks, fused.seconds]],
        "per_cell_tasks": per_cell.n_tasks,
        "fused_tasks": fused.n_tasks,
        "cost_factor": per_cell.seconds / fused.seconds,
    }


def _ablation_queue(policies: Sequence[str], layers: int, seq_len: int, batch: int,
                    mbs: int, n_cores: int) -> Dict:
    spec = figures.blstm_spec(layers)
    times = {
        p: simulated_batch_time(spec, seq_len, batch, mbs=mbs, n_cores=n_cores,
                                scheduler=p).seconds
        for p in policies
    }
    base = times["fifo"]
    return {
        "headers": ["policy", "time s", "vs fifo"],
        "rows": [[p, t, t / base] for p, t in times.items()],
        "max_deviation_vs_fifo": max(abs(t - base) / base for t in times.values()),
    }


#: section -> (title, measure): paper order, then the extras
SECTIONS: Dict[str, Tuple[str, Callable[..., Dict]]] = {
    "table3": ("Table III: BLSTM training, ms/batch",
               lambda configs: table_section("lstm", configs)),
    "table4": ("Table IV: BGRU training, ms/batch",
               lambda configs: table_section("gru", configs)),
    "fig3": ("Fig. 3: B-Par speed-up vs mbs:1 @ 1 core", figures.fig3_minibatch_scaling),
    "fig4": ("Fig. 4: batch training time (s) vs cores", figures.fig4_core_scaling),
    "fig5": ("Fig. 5: batch/hidden sweep, training time", figures.fig5_hidden_batch),
    "fig6": ("Fig. 6: layer-count sweep, seconds/batch", figures.fig6_layers),
    "fig7": ("Fig. 7: locality-aware vs oblivious scheduling, time share per band",
             figures.fig7_locality),
    "fig8": ("Fig. 8: next-char many-to-many, B-Par vs Keras", figures.fig8_next_char),
    "granularity": ("§IV-B task granularity", figures.granularity_study),
    "memory": ("§IV-B memory consumption", figures.memory_study),
    "inference_latency": ("Batch-1 inference latency (6-layer BLSTM 256/256)",
                          _inference_latency),
    "ablation_granularity": ("Ablation: one task per cell vs one per layer chain",
                             _ablation_granularity),
    "ablation_queue": ("Ablation: ready-queue policy", _ablation_queue),
}

_CORE_COUNTS = (1, 2, 4, 8, 16, 24, 32, 48)
_BLSTM8 = dict(layers=8, seq_len=100, batch=128, mbs=8, n_cores=48)
_POLICIES = ("fifo", "locality")
_FIG7 = dict(layers=8, input_size=64, hidden=512, seq_len=100, batch=128, mbs=2, n_cores=48)
_GRANULARITY = dict(layers=6, input_size=64, hidden=512, seq_len=100, batch=128,
                    mbs=1, n_cores=48, batches_per_epoch=98)
_MEMORY = dict(layers=8, seq_len=100, batch=126, mbs=6, n_cores=48)

GRIDS: Dict[str, Dict[str, Dict]] = {
    # the paper's complete grids
    "record": {
        "table3": dict(configs=TABLE_CONFIGS),
        "table4": dict(configs=TABLE_CONFIGS),
        "fig3": dict(layers=8, seq_len=100, batch=120,
                     core_counts=_CORE_COUNTS, mbs_list=(1, 2, 4, 6, 8, 10, 12)),
        "fig4": dict(layers=8, seq_len=100, batch=128, mbs=8, core_counts=_CORE_COUNTS),
        "fig5": dict(layers_list=(8, 12), batches=(128, 256, 512, 1024),
                     hiddens=(128, 256), seq_len=100, n_cores=48),
        "fig6": dict(layer_counts=(2, 4, 8, 12), seq_len=100, batch=128, n_cores=48),
        "fig7": _FIG7,
        "fig8": dict(layer_counts=(2, 4, 8, 12), batches=(128, 256), hiddens=(128, 256),
                     seq_len=50, n_cores=48),
        "granularity": _GRANULARITY,
        "memory": _MEMORY,
        "inference_latency": dict(seq_lens=(2, 5, 10, 25, 50, 100)),
        "ablation_granularity": _BLSTM8,
        "ablation_queue": dict(_BLSTM8, policies=_POLICIES),
    },
    # one point per regime, quarter-length sequences where a section's
    # claim does not name the length; ~70 s on a 2-vCPU host
    "smoke": {
        "table3": dict(configs=[(256, 256, 128, 100), (256, 256, 1, 2),
                                (256, 256, 1, 100), (256, 1024, 256, 25)]),
        "table4": dict(configs=[(256, 256, 1, 2), (256, 256, 1, 100),
                                (256, 1024, 256, 25)]),
        "fig3": dict(layers=8, seq_len=25, batch=120,
                     core_counts=(1, 8, 48), mbs_list=(1, 2, 8)),
        "fig4": dict(layers=8, seq_len=25, batch=128, mbs=8, core_counts=(1, 8, 48)),
        "fig5": dict(layers_list=(8,), batches=(128, 512), hiddens=(256,),
                     seq_len=25, n_cores=48),
        "fig6": dict(layer_counts=(2, 8), seq_len=25, batch=128, n_cores=48),
        "fig7": _FIG7,
        "fig8": dict(layer_counts=(2, 8), batches=(128,), hiddens=(128, 256),
                     seq_len=25, n_cores=48),
        "granularity": _GRANULARITY,
        "memory": dict(_MEMORY, seq_len=25),
        "inference_latency": dict(seq_lens=(2, 10, 100)),
        "ablation_granularity": dict(_BLSTM8, seq_len=25),
        "ablation_queue": dict(_BLSTM8, seq_len=25, policies=_POLICIES),
    },
}


def run_paper_suite(grid: str = "smoke", sections: Optional[Sequence[str]] = None) -> Dict:
    """Measure ``sections`` (default: all) at ``grid``: ``{"config", "results"}``."""
    names = list(SECTIONS) if sections is None else list(sections)
    return {
        "config": {"grid": grid, "machine": xeon_8160_2s().name,
                   "sections": {n: GRIDS[grid][n] for n in names}},
        "results": {n: SECTIONS[n][1](**GRIDS[grid][n]) for n in names},
    }


def format_results(results: Dict) -> str:
    """Every section of a ``paper`` report's ``results`` as its table — the
    one formatter of the paper's numbers (the scalars stay in the JSON)."""
    return "\n\n".join(
        format_table(sec["headers"], sec["rows"], title=SECTIONS[name][0])
        for name, sec in results.items()
    )
