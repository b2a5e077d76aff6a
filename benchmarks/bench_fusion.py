"""Ablation: the gate-GEMM/activation fusion ladder + wavefront tiling.

The fusion policy (``fusion`` on :class:`~repro.config.ExecutionConfig`,
docs/PERF.md) generalises the fused-projection optimisation into a
cumulative ladder: per-gate GEMMs (``off``) → stacked gate GEMM
(``gates``) → in-payload activations (``gates+act``) → wavefront chain
tiling (``wavefront``).  This bench quantifies each rung on both
substrates:

* **threaded** — real wall time on the host at the paper-scale recorded
  configuration.  The full ladder (``wavefront``) must clear 1.5× median
  inference throughput over the fully unfused baseline — above the 1.35×
  the fused-projection bench records for hoisting alone (the bars and the
  recorded size are suite ``fusion`` of ``repro.harness.ledger``;
  ``python -m repro bench fusion --record`` rewrites
  ``benchmarks/baselines/BENCH_fusion.json``).
* **sim** — cost-only graphs on the modelled 48-core Xeon.  The
  duration-weighted critical path (standalone task costs) must fall below
  0.686× the unfused baseline for ``wavefront`` — i.e. beat the fused
  projection's flop-weighted 0.686 bar on the stronger duration metric.
* **static analysis** — the wavefront graph must be *wider* than the
  layer-ordered build (the diagonal is real concurrency, not padding) and
  produce zero linter/analyzer findings (tile declarations are exact).

Set ``REPRO_BENCH_FULL=1`` for the wider grids.
"""

import pytest

from benchmarks.common import full_grids, run_once
from repro.harness.fusionbench import (
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
    out = run_once(
        benchmark,
        lambda: simulated_comparison(spec, 100, 32, wavefront_tile=tile),
    )
    assert out["wavefront"]["cp_ratio"] < 1.0
    if tile > 1:
        # amortising tiles shrink the task count despite the extra proj
        # tasks the wavefront rung composes with (tile 1 degenerates to
        # per-step cells + hoisted projections: more tasks than unhoisted)
        assert out["wavefront"]["n_tasks"] < out["gates"]["n_tasks"]


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_sim_cell_sweep(benchmark, cell):
    """The ladder's critical path is monotone for both gated cells."""
    spec = make_spec(cell, 1024, 128, 2, "many_to_one")
    out = run_once(benchmark, lambda: simulated_comparison(spec, 50, 32))
    assert out["gates"]["cp_ratio"] <= 1.0
    assert out["wavefront"]["cp_ratio"] <= out["gates+act"]["cp_ratio"]


@pytest.mark.parametrize("mbs", [1, 4])
def test_analysis_contrast(benchmark, mbs):
    """Wavefront graphs stay lint-clean and wider than layer-ordered at
    every chunking."""
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
    """Small-host sanity: the whole ladder runs end-to-end and stays
    numerically live (no speed-up asserted at laptop scale)."""
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
