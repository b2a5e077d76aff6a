"""Fusion ablation drivers (docs/PERF.md §fusion).

Two ablations over one piece of ladder code, each a ``{label: (fusion,
fused_input_projection)}`` mode table with the baseline labelled ``off``:

* :data:`LADDER` (suite ``fusion``) — the cumulative fusion ladder:
  per-gate GEMMs (``off``), the stacked gate GEMM (``gates``), in-payload
  activations (``gates+act``), wavefront chain tiling (``wavefront``).
* :data:`PROJECTION` (suite ``fused_projection``) — the per-step graph vs
  the hoisted one (only the recurrent GEMM on the cell chain) under the
  default fusion: ``off``/``on``/``auto``, timed as an inference batch and,
  ``off`` against ``on``, as a training step.

Both run on both substrates:

* **threaded** — real wall time of batches on the host's worker
  threads (:func:`repro.harness.measure.interleaved_step_times`),
  summarised as median/p95 with ``speedup_median`` relative to ``off``.
* **sim** — cost-only graphs on the modelled 48-core machine: simulated
  batch time, task count, and the critical path under two weights.  The
  *flop-weighted* path is what hoisting shrinks, schedule-independently
  (only the ``(B,H)×(H,GH)`` recurrent half stays on the chain); the
  *duration-weighted* path
  (:meth:`~repro.simarch.costmodel.CostModel.standalone` per task) is what
  the ladder shrinks — tiling removes per-task overhead and pointwise
  passes, not GEMM flops.

The ladder also records the static-analysis contrast behind the tiling
claim: graph width and average parallelism of the wavefront graph against
the layer-ordered (barriered) build, with the linter/analyzer finding
counts, and a flop-conservation check tying the fused gate GEMM to the
sum of its per-gate parts.

``python -m repro bench fusion|fused_projection`` drives
:func:`run_fusion_bench` / :func:`run_fused_bench`; the sizes, bars and
baselines are rows of :mod:`repro.harness.ledger`.
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
from repro.models.spec import BRNNSpec
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.costmodel import CostModel
from repro.simarch.presets import xeon_8160_2s

Modes = Mapping[str, Tuple[str, str]]

#: The cumulative ladder.  The ``gates+act``/``wavefront`` rungs compose
#: with projection hoisting — the policy they generalise — while the two
#: baselines run without it (``fusion="off"`` forces hoisting off in the
#: builder regardless).
LADDER: Modes = {
    "off": ("off", "off"),
    "gates": ("gates", "off"),
    "gates+act": ("gates+act", "on"),
    "wavefront": ("wavefront", "on"),
}

#: The input-projection ablation, under the default ``fusion="gates"``.
PROJECTION: Modes = {
    "off": ("gates", "off"),
    "on": ("gates", "on"),
    "auto": ("gates", "auto"),
}


def threaded_mode_times(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    modes: Modes,
    *,
    mbs: int = 1,
    n_workers: Optional[int] = None,
    training: bool = False,
    iters: int = 5,
    warmup: int = 1,
    seed: int = 0,
    **knobs,
) -> Dict[str, Dict[str, float]]:
    """Per-mode timing summaries plus ``speedup_median`` vs ``off``, of an
    inference batch or (``training``) an SGD step.

    ``knobs`` (``proj_block``/``wavefront_tile``) reach every mode's
    :class:`~repro.config.ExecutionConfig`.
    """
    configs = {
        label: ExecutionConfig(
            executor="threaded", n_workers=n_workers, mbs=mbs,
            fusion=fusion, fused_input_projection=proj, **knobs,
        )
        for label, (fusion, proj) in modes.items()
    }
    samples, _ = interleaved_step_times(
        spec, seq_len, batch, configs,
        training=training, iters=iters, warmup=warmup, seed=seed,
    )
    threaded: Dict[str, Dict[str, float]] = {
        label: summarize_times(xs) for label, xs in samples.items()
    }
    base = threaded["off"]["median_s"]
    threaded["speedup_median"] = {
        label: base / threaded[label]["median_s"]
        for label in modes if label != "off"
    }
    return threaded


def simulated_comparison(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    modes: Modes = LADDER,
    *,
    mbs: int = 1,
    n_cores: Optional[int] = None,
    **knobs,
) -> Dict[str, Dict[str, float]]:
    """Cost-only modes on the modelled machine.

    Per mode: ``batch_s`` (makespan + creation), ``n_tasks``, the
    flop-weighted ``critical_path_flops``, the duration-weighted
    ``critical_path_s`` and its ``cp_ratio`` relative to ``off``.
    """
    machine = xeon_8160_2s()
    cost = CostModel(machine)
    out: Dict[str, Dict[str, float]] = {}
    for label, (fusion, proj) in modes.items():
        graph = build_brnn_graph(
            spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
            fused_input_projection=proj, fusion=fusion, **knobs,
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
    return out


def simulated_projection_comparison(
    spec: BRNNSpec, seq_len: int, batch: int, **kwargs
) -> Dict:
    """``off`` vs ``on`` of :data:`PROJECTION` plus the derived
    flop-weighted ``critical_path_reduction`` and ``sim_speedup``."""
    modes = {label: PROJECTION[label] for label in ("off", "on")}
    out: Dict = simulated_comparison(spec, seq_len, batch, modes, **kwargs)
    off, fused = out["off"], out["on"]
    out["critical_path_reduction"] = (
        1.0 - fused["critical_path_flops"] / off["critical_path_flops"]
        if off["critical_path_flops"] > 0 else 0.0
    )
    out["sim_speedup"] = (
        off["batch_s"] / fused["batch_s"] if fused["batch_s"] > 0 else 0.0
    )
    return out


def wavefront_analysis_contrast(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    *,
    mbs: int = 1,
    wavefront_tile: Optional[int] = None,
) -> Dict[str, float]:
    """Static parallelism of the wavefront graph vs the layer-ordered build.

    The contrast quantifying the diagonal: the barrier-free wavefront
    graph's width/average parallelism against the same model built
    layer-ordered (``barrier_free=False``, default fusion) — the
    execution discipline of conventional frameworks.  Also records the
    linter + analyzer finding counts on the wavefront graph (the bench
    gate requires both zero: tiled declarations are exact, not padded).
    """
    wave = build_brnn_graph(
        spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
        fused_input_projection="on", fusion="wavefront",
        wavefront_tile=wavefront_tile,
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


def gate_flops_conservation(spec: BRNNSpec, batch: int) -> bool:
    """Do the per-gate GEMM flops sum exactly to the stacked total, and the
    forward total to GEMM + pointwise, on every layer?  Exact float
    comparison: the splits are definitions, not measurements."""
    for layer in range(spec.num_layers):
        stacked = cell_gate_gemm_flops(spec, batch, layer)
        per_gate = cell_gate_gemm_flops(spec, batch, layer, n_gates=1)
        gates = {"lstm": 4, "gru": 3, "rnn": 1}[spec.cell]
        if per_gate * gates != stacked:
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
    wavefront_tile: Optional[int] = None,
    seed: int = 0,
) -> Dict:
    """One ladder point — threaded wall time, simulated cost model, static
    wavefront contrast — as ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers, head)
    return {
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "head": head, "mbs": mbs, "wavefront_tile": wavefront_tile,
            "iters": iters, "warmup": warmup, "seed": seed,
            "modes": [list(m) for m in LADDER.values()],
            "threaded_workers": n_workers, "sim_cores": sim_cores,
        },
        "results": {
            "threaded": threaded_mode_times(
                spec, seq_len, batch, LADDER,
                mbs=mbs, n_workers=n_workers, wavefront_tile=wavefront_tile,
                iters=iters, warmup=warmup, seed=seed,
            ),
            "sim": simulated_comparison(
                spec, seq_len, batch,
                mbs=mbs, n_cores=sim_cores, wavefront_tile=wavefront_tile,
            ),
            "analysis": wavefront_analysis_contrast(
                spec, seq_len, batch, mbs=mbs, wavefront_tile=wavefront_tile,
            ),
            "flops_conserved": gate_flops_conservation(spec, batch),
        },
    }


def run_fused_bench(
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
    proj_block: Optional[int] = None,
    seed: int = 0,
) -> Dict:
    """One input-projection ablation point — threaded wall time of an
    inference batch and of a training step, plus the simulated cost model —
    as ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers, head)
    timing = dict(mbs=mbs, n_workers=n_workers, proj_block=proj_block,
                  iters=iters, warmup=warmup, seed=seed)
    threaded = threaded_mode_times(spec, seq_len, batch, PROJECTION, **timing)
    train = threaded_mode_times(
        spec, seq_len, batch, {m: PROJECTION[m] for m in ("off", "on")},
        training=True, **timing,
    )
    threaded["train_speedup_median"] = train.pop("speedup_median")
    threaded["train"] = train
    return {
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "head": head, "mbs": mbs, "proj_block": proj_block,
            "iters": iters, "warmup": warmup, "seed": seed,
            "modes": list(PROJECTION),
            "threaded_workers": n_workers, "sim_cores": sim_cores,
        },
        "results": {
            "threaded": threaded,
            "sim": simulated_projection_comparison(
                spec, seq_len, batch,
                mbs=mbs, n_cores=sim_cores, proj_block=proj_block,
            ),
            "host_cores": os.cpu_count() or 1,
        },
    }
