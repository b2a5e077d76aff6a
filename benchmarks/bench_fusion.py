"""Ablation: kernel, hoisting and chain tile (docs/PERF.md §fusion).

One mode table (``repro.harness.fusionbench.MODES``), each rung one lever
away from the rung it is compared with: per-gate reference kernels
(``off``) → stacked gate GEMM (``gates``) → every GEMM but the recurrent
one hoisted off the cell chain (``proj``; ``auto`` hoists where the panel
outgrows the cache) → chain tasks of eight steps (``tiled``).  This bench
quantifies each on both substrates:

* **threaded** — real wall time on the host at the paper-scale recorded
  configuration (spectrogram-like 1024-feature input).  ``proj`` must clear
  1.2× median inference throughput over ``gates`` (1.7× on a training
  step), and the three levers together (``tiled``) 1.5× over ``off`` (the
  bars and the recorded size are suite ``fusion`` of
  ``repro.harness.ledger``; ``python -m repro bench fusion --record``
  rewrites ``benchmarks/baselines/BENCH_fusion.json``).
* **sim** — cost-only graphs on the modelled 48-core Xeon.  Hoisting must
  *strictly* shrink the flop-weighted critical path everywhere (only the
  ``(B,H)×(H,GH)`` recurrent half stays on the chain), and the
  duration-weighted path (standalone task costs) of ``tiled`` must fall
  below 0.686× the unfused baseline — i.e. beat hoisting's flop-weighted
  0.686 on the stronger duration metric.
* **static analysis** — the tiled graph must be *wider* than the
  layer-ordered build (the diagonal is real concurrency, not padding) and
  produce zero linter/analyzer findings (tile declarations are exact).

Set ``REPRO_BENCH_FULL=1`` for the wider grids.
"""

import pytest

from benchmarks.common import full_grids, run_once
from repro.harness.fusionbench import (
    MODES,
    run_fusion_bench,
    simulated_comparison,
    wavefront_analysis_contrast,
)
from repro.harness.ledger import check_report, run_suite
from repro.harness.measure import make_spec


def test_record_config(benchmark):
    """Paper-scale point: measure it and hold it to the ledger's bars."""
    report = run_once(benchmark, lambda: run_suite("fusion", scope="record"))
    assert check_report(report) == []


@pytest.mark.parametrize("tile", [1, 4, 8, 25] if full_grids() else [1, 8, 25])
def test_sim_tile_sweep(benchmark, tile):
    """Task count falls with the tile size; the duration-weighted path
    stays below the unfused baseline at every tile."""
    spec = make_spec("lstm", 1024, 128, 2, "many_to_one")
    modes = {**MODES, "tiled": ("gates", "on", tile)}
    out = run_once(benchmark, lambda: simulated_comparison(spec, 100, 32, modes))
    assert out["tiled"]["cp_ratio"] < 1.0
    if tile > 1:
        # amortising tiles shrink the task count despite the extra proj
        # tasks hoisting adds (tile 1 is per-step cells + hoisted
        # projections: more tasks than unhoisted)
        assert out["tiled"]["n_tasks"] < out["gates"]["n_tasks"]


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_sim_cell_sweep(benchmark, cell):
    """The critical path is monotone rung by rung for both gated cells."""
    spec = make_spec(cell, 1024, 128, 2, "many_to_one")
    out = run_once(benchmark, lambda: simulated_comparison(spec, 50, 32))
    assert out["gates"]["cp_ratio"] <= 1.0
    assert out["tiled"]["cp_ratio"] <= out["proj"]["cp_ratio"]


#: (seq_len, hidden, cores, proj_block): blocks kept shorter than the
#: sequence — a single whole-sequence block gates the first cell on all the
#: hoisted flops and the flop-weighted path is exactly per-step's
_HOIST_POINTS = [
    (16, 128, None, 4), (100, 128, None, 4),
    (50, 64, None, None), (50, 256, None, None),
    (50, 128, 1, None), (50, 128, 48, None),
] + ([(200, 128, None, 4), (50, 512, None, None), (50, 128, 8, None)] if full_grids() else [])


@pytest.mark.parametrize("seq_len,hidden,cores,proj_block", _HOIST_POINTS)
def test_sim_hoisting_sweep(benchmark, seq_len, hidden, cores, proj_block):
    """Hoisting shrinks the flop-weighted chain at every T, hidden size
    (the input share varies) and core count, and with fewer serial GEMM
    flops the simulated batch does not get slower."""
    spec = make_spec("lstm", 1024, hidden, 2, "many_to_one")
    out = run_once(
        benchmark,
        lambda: simulated_comparison(
            spec, seq_len, 32, n_cores=cores, proj_block=proj_block
        ),
    )
    assert 0.0 < out["critical_path_reduction"] < 1.0
    assert out["sim_speedup"] > 0.95


@pytest.mark.parametrize("mbs", [1, 4])
def test_analysis_contrast(benchmark, mbs):
    """Tiled graphs stay lint-clean and wider than layer-ordered at every
    chunking."""
    spec = make_spec("lstm", 256, 64, 2, "many_to_one")
    out = run_once(
        benchmark,
        lambda: wavefront_analysis_contrast(spec, 32, 16, mbs=mbs),
    )
    assert out["lint_findings"] == 0
    assert out["analyzer_findings"] == 0
    assert out["wavefront_width"] > out["layered_width"]


@pytest.mark.parametrize("seq_len", [12, 48])
def test_threaded_small_scale(benchmark, seq_len):
    """Small-host sanity: every mode runs end-to-end and stays numerically
    live.  At laptop scale (small input sizes) the hoisted GEMM buys
    little — the point of ``auto`` — so no speed-up is asserted."""
    point = run_once(
        benchmark,
        lambda: run_fusion_bench(
            cell="gru", input_size=128, hidden=64, layers=2,
            seq_len=seq_len, batch=16, iters=3,
        ),
    )
    for mode, s in point["results"]["threaded"]["speedup_median"].items():
        assert s > 0.0
    assert point["results"]["flops_conserved"]
