"""The fusion ablation (docs/PERF.md §fusion): kernel, hoisting, tile.

One mode table, :data:`MODES`, ``{label: (fusion, fused_input_projection,
wavefront_tile)}``; each rung differs from the rung it is compared with in
one lever: the per-gate reference kernels (``off``), the stacked gate GEMM
(``gates``), hoisting on top of it (``proj``; ``auto`` hoists only the
layers whose panel outgrows the cache), and chain tiles of eight steps on
top of that (``tiled``).  Run on both substrates:

* **threaded** — real wall time of batches on the host's worker threads
  (:func:`repro.harness.measure.interleaved_step_times`), summarised as
  median/p95: every mode as an inference batch, with ``speedup_median``
  over ``off`` and ``hoist_speedup_median`` of ``proj``/``auto`` over
  ``gates``; ``gates`` and ``proj`` also as a training step.
* **sim** — cost-only graphs on the modelled 48-core machine: simulated
  batch time, task count, and the critical path under two weights.  The
  *flop-weighted* path is what hoisting shrinks, schedule-independently
  (only the ``(B,H)×(H,GH)`` recurrent half stays on the chain); the
  *duration-weighted* path
  (:meth:`~repro.simarch.costmodel.CostModel.standalone` per task) is what
  the stacked GEMM and the tiles shrink — fewer GEMM calls and less
  per-task overhead, not fewer GEMM flops.

It also records the static-analysis contrast behind the tiling claim: graph
width and average parallelism of the tiled graph against the layer-ordered
(barriered) build, with the linter/analyzer finding counts, a
flop-conservation check tying the stacked gate GEMM to the sum of its
per-gate parts, and the same cost-only comparisons over tile sizes, cells,
hoisting points and chunkings (:func:`simulated_sweeps`).

``python -m repro bench fusion`` drives :func:`run_fusion_bench`; the sizes,
bars and baseline are a row of :mod:`repro.harness.ledger`.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.graphlint import lint_graph
from repro.analysis.parallelism import analyze_graph
from repro.config import ExecutionConfig
from repro.core.graph_builder import build_brnn_graph
from repro.harness.measure import (
    interleaved_step_times,
    make_spec,
    summarize_times,
)
from repro.models.cells import (
    cell_bwd_pointwise_flops,
    cell_fwd_flops,
    cell_fwd_pointwise_flops,
    cell_gate_gemm_flops,
)
from repro.models.spec import CELLS, BRNNSpec
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.costmodel import CostModel
from repro.simarch.presets import xeon_8160_2s

Modes = Mapping[str, Tuple[str, str, Optional[int]]]

MODES: Modes = {
    "off": ("off", "off", None),
    "gates": ("gates", "off", None),
    "proj": ("gates", "on", None),
    "auto": ("gates", "auto", None),
    "tiled": ("gates", "on", 8),
}


def threaded_mode_times(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    modes: Modes,
    *,
    baseline: str = "off",
    mbs: int = 1,
    n_workers: Optional[int] = None,
    training: bool = False,
    iters: int = 5,
    warmup: int = 1,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Per-mode timing summaries plus ``speedup_median`` over ``baseline``,
    of an inference batch or (``training``) an SGD step."""
    configs = {
        label: ExecutionConfig(
            executor="threaded", n_workers=n_workers, mbs=mbs,
            fusion=fusion, fused_input_projection=proj, wavefront_tile=tile,
        )
        for label, (fusion, proj, tile) in modes.items()
    }
    samples, _ = interleaved_step_times(
        spec, seq_len, batch, configs,
        training=training, iters=iters, warmup=warmup, seed=seed,
    )
    threaded: Dict[str, Dict[str, float]] = {
        label: summarize_times(xs) for label, xs in samples.items()
    }
    base = threaded[baseline]["median_s"]
    threaded["speedup_median"] = {
        label: base / threaded[label]["median_s"]
        for label in modes if label != baseline
    }
    return threaded


def simulated_comparison(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    modes: Modes = MODES,
    *,
    mbs: int = 1,
    n_cores: Optional[int] = None,
    proj_block: Optional[int] = None,
) -> Dict:
    """Cost-only modes on the modelled machine.

    Per mode: ``batch_s`` (makespan + creation), ``n_tasks``, the
    flop-weighted ``critical_path_flops``, the duration-weighted
    ``critical_path_s`` and its ``cp_ratio`` relative to ``off``.  Beside
    them what hoisting buys, ``proj`` against ``gates``: the flop-weighted
    ``critical_path_reduction`` and the ``sim_speedup`` of a batch.
    """
    machine = xeon_8160_2s()
    cost = CostModel(machine)
    out: Dict = {}
    for label, (fusion, proj, tile) in modes.items():
        graph = build_brnn_graph(
            spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
            fused_input_projection=proj, proj_block=proj_block,
            fusion=fusion, wavefront_tile=tile,
        ).graph
        sim = SimulatedExecutor(machine, n_cores=n_cores, scheduler="locality")
        sim.run(graph)          # warm: weights NUMA-homed, as in simtime
        trace = sim.run(graph)
        out[label] = {
            "batch_s": trace.makespan + len(graph) * machine.task_create_s,
            "critical_path_flops": graph.critical_path_length(lambda t: t.flops),
            "critical_path_s": graph.critical_path_length(cost.standalone),
            "n_tasks": float(len(graph)),
        }
    base = out["off"]["critical_path_s"]
    for row in out.values():
        row["cp_ratio"] = row["critical_path_s"] / base if base > 0 else 0.0
    gates, hoisted = out["gates"], out["proj"]
    out["critical_path_reduction"] = (
        1.0 - hoisted["critical_path_flops"] / gates["critical_path_flops"]
    )
    out["sim_speedup"] = gates["batch_s"] / hoisted["batch_s"]
    return out


def wavefront_analysis_contrast(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    *,
    mbs: int = 1,
) -> Dict[str, float]:
    """Static parallelism of the ``tiled`` graph vs the layer-ordered build.

    The contrast quantifying the diagonal: the barrier-free tiled graph's
    width/average parallelism against the same model built layer-ordered
    (``barrier_free=False``, per-step) — the execution discipline of
    conventional frameworks.  Also records the linter + analyzer finding
    counts on the tiled graph (the bench gate requires both zero: tiled
    declarations are exact, not padded).
    """
    fusion, proj, tile = MODES["tiled"]
    wave = build_brnn_graph(
        spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
        fused_input_projection=proj, fusion=fusion, wavefront_tile=tile,
    ).graph
    layered = build_brnn_graph(
        spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
        barrier_free=False,
    ).graph
    wave_metrics = analyze_graph(wave)
    layered_metrics = analyze_graph(layered)
    return {
        "wavefront_width": wave_metrics.metrics["width"],
        "wavefront_avg_parallelism": wave_metrics.metrics["avg_parallelism"],
        "layered_width": layered_metrics.metrics["width"],
        "layered_avg_parallelism": layered_metrics.metrics["avg_parallelism"],
        "lint_findings": float(len(lint_graph(wave).findings)),
        "analyzer_findings": float(len(wave_metrics.findings)),
    }


#: (seq_len, hidden, cores, proj_block): blocks kept shorter than the
#: sequence — a single whole-sequence block gates the first cell on all the
#: hoisted flops and the flop-weighted path is exactly per-step's
_HOIST_POINTS = (
    (16, 128, None, 4), (100, 128, None, 4), (50, 64, None, None),
    (50, 256, None, None), (50, 128, 1, None), (50, 128, 48, None),
)


def simulated_sweeps() -> Dict:
    """The simulated comparison around the paper-scale shape (1024-feature
    input, two layers, batch 32), one lever at a time.  Cost-only and fixed,
    so both sizes of the suite record the same numbers."""

    def compare(cell="lstm", hidden=128, seq_len=100, **kw):
        return simulated_comparison(make_spec(cell, 1024, hidden, 2), seq_len, 32, **kw)

    tiles = {t: compare(modes={**MODES, "tiled": ("gates", "on", t)}) for t in (1, 8, 25)}
    cells = {c: compare(cell=c, seq_len=50) for c in ("lstm", "gru")}
    hoisted = [compare(hidden=h, seq_len=t, n_cores=c, proj_block=pb)
               for t, h, c, pb in _HOIST_POINTS]
    chunked = [wavefront_analysis_contrast(make_spec("lstm", 256, 64, 2), 32, 16, mbs=m)
               for m in (1, 4)]
    reductions = [o["critical_path_reduction"] for o in hoisted]
    return {
        # tile 1 is per-step cells plus hoisted projections (more tasks than
        # unhoisted); every larger tile must amortise below the ``gates`` count
        "tile": {
            "max_cp_ratio": max(o["tiled"]["cp_ratio"] for o in tiles.values()),
            "max_task_ratio": max(o["tiled"]["n_tasks"] / o["gates"]["n_tasks"]
                                  for t, o in tiles.items() if t > 1),
        },
        "cell": {c: {m: o[m]["cp_ratio"] for m in ("gates", "proj", "tiled")}
                 for c, o in cells.items()},
        "hoisting": {
            "min_critical_path_reduction": min(reductions),
            "max_critical_path_reduction": max(reductions),
            "min_sim_speedup": min(o["sim_speedup"] for o in hoisted),
        },
        "chunked": {
            "max_lint_findings": max(o["lint_findings"] for o in chunked),
            "max_analyzer_findings": max(o["analyzer_findings"] for o in chunked),
            "min_width_gain": min(o["wavefront_width"] - o["layered_width"] for o in chunked),
        },
    }


def gate_flops_conservation(spec: BRNNSpec, batch: int) -> bool:
    """Do the per-gate GEMM flops sum exactly to the stacked total, and the
    forward total to GEMM + pointwise, on every layer?  Exact float
    comparison: the splits are definitions, not measurements."""
    for layer in range(spec.num_layers):
        stacked = cell_gate_gemm_flops(spec, batch, layer)
        per_gate = cell_gate_gemm_flops(spec, batch, layer, n_gates=1)
        if per_gate * CELLS[spec.cell].gates != stacked:
            return False
        total = stacked + cell_fwd_pointwise_flops(spec, batch)
        if total != cell_fwd_flops(spec, batch, layer):
            return False
        if cell_bwd_pointwise_flops(spec, batch) <= 0:
            return False
    return True


def run_fusion_bench(
    cell: str = "lstm",
    input_size: int = 1024,
    hidden: int = 128,
    layers: int = 2,
    seq_len: int = 100,
    batch: int = 32,
    head: str = "many_to_one",
    *,
    mbs: int = 1,
    iters: int = 5,
    warmup: int = 1,
    n_workers: Optional[int] = None,
    sim_cores: Optional[int] = None,
    seed: int = 0,
) -> Dict:
    """One ablation point — threaded wall time of an inference batch per
    mode and of a training step with and without hoisting, simulated cost
    model, static contrast — as ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers, head)
    timing = dict(mbs=mbs, n_workers=n_workers, iters=iters, warmup=warmup, seed=seed)
    threaded = threaded_mode_times(spec, seq_len, batch, MODES, **timing)
    gates = threaded["gates"]["median_s"]
    threaded["hoist_speedup_median"] = {
        label: gates / threaded[label]["median_s"] for label in ("proj", "auto")
    }
    train = threaded_mode_times(
        spec, seq_len, batch, {m: MODES[m] for m in ("gates", "proj")},
        baseline="gates", training=True, **timing,
    )
    threaded["train_speedup_median"] = train.pop("speedup_median")
    threaded["train"] = train
    return {
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "head": head, "mbs": mbs,
            "iters": iters, "warmup": warmup, "seed": seed,
            "modes": {label: list(mode) for label, mode in MODES.items()},
            "threaded_workers": n_workers, "sim_cores": sim_cores,
        },
        "results": {
            "threaded": threaded,
            "sim": simulated_comparison(
                spec, seq_len, batch, mbs=mbs, n_cores=sim_cores,
            ),
            "analysis": wavefront_analysis_contrast(spec, seq_len, batch, mbs=mbs),
            "sweeps": simulated_sweeps(),
            "flops_conserved": gate_flops_conservation(spec, batch),
            "host_cores": os.cpu_count() or 1,
        },
    }
