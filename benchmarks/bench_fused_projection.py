"""Ablation: sequence-level fused input projections vs per-step GEMMs.

The tentpole optimisation hoists each layer's ``X_t @ W_x`` GEMMs out of
the recurrent dependency chain into per-block sequence-level GEMMs
(``fused_input_projection`` on the engines).  This bench quantifies it on
both substrates:

* **threaded** — real wall time on the host, at the paper-scale recorded
  configuration (spectrogram-like 1024-feature input).  The fused path
  must clear 1.2× median inference throughput over per-step (a bar of
  suite ``fused_projection`` in ``repro.harness.ledger``, as is the
  recorded size; ``python -m repro bench fused_projection --record``
  rewrites ``benchmarks/baselines/BENCH_fused_projection.json``).
* **sim** — cost-only graphs on the modelled 48-core Xeon, swept over
  ``seq_len``/``hidden``/``cores``.  The flop-weighted critical path must
  *strictly* shrink everywhere: the hoisted GEMMs leave only the
  ``(B,H)×(H,GH)`` recurrent half on the chain.

Set ``REPRO_BENCH_FULL=1`` for the wider grids.
"""

import pytest

from benchmarks.common import full_grids, run_once
from repro.harness.fusionbench import (
    run_fused_bench,
    simulated_projection_comparison,
)
from repro.harness.ledger import check_report, run_suite
from repro.harness.measure import make_spec


def test_record_config(benchmark):
    """Paper-scale point: measure it and hold it to the ledger's bars."""
    report = run_once(
        benchmark, lambda: run_suite("fused_projection", scope="record")
    )
    assert check_report(report) == []


@pytest.mark.parametrize("seq_len", [16, 100, 200] if full_grids() else [16, 100])
def test_sim_seq_len_sweep(benchmark, seq_len):
    """The chain shrinks at every T (blocks kept shorter than the sequence:
    a single whole-sequence block gates the first cell on all the hoisted
    flops and the flop-weighted path is exactly per-step's)."""
    spec = make_spec("lstm", 1024, 128, 2, "many_to_one")
    out = run_once(
        benchmark, lambda: simulated_projection_comparison(spec, seq_len, 32, proj_block=4)
    )
    assert 0.0 < out["critical_path_reduction"] < 1.0


@pytest.mark.parametrize("hidden", [64, 128, 512] if full_grids() else [64, 256])
def test_sim_hidden_sweep(benchmark, hidden):
    """The reduction holds across hidden sizes (input share varies)."""
    spec = make_spec("lstm", 1024, hidden, 2, "many_to_one")
    out = run_once(benchmark, lambda: simulated_projection_comparison(spec, 50, 32))
    assert 0.0 < out["critical_path_reduction"] < 1.0


@pytest.mark.parametrize("cores", [1, 8, 48] if full_grids() else [1, 48])
def test_sim_cores_sweep(benchmark, cores):
    """Makespan benefit across core counts on the modelled machine."""
    spec = make_spec("lstm", 1024, 128, 2, "many_to_one")
    out = run_once(
        benchmark, lambda: simulated_projection_comparison(spec, 50, 32, n_cores=cores)
    )
    assert 0.0 < out["critical_path_reduction"] < 1.0
    # fewer serial GEMM flops → the simulated batch should not get slower
    assert out["sim_speedup"] > 0.95


@pytest.mark.parametrize("seq_len", [12, 48])
def test_threaded_small_scale(benchmark, seq_len):
    """Small-host sanity: fused stays numerically live and roughly on par.

    At laptop scale (small input sizes) the hoisted GEMM buys little — the
    point of ``auto`` — so no speed-up is asserted here, only that the
    ablation runs end-to-end on the threaded executor.
    """
    point = run_once(
        benchmark,
        lambda: run_fused_bench(
            cell="gru", input_size=128, hidden=64, layers=2,
            seq_len=seq_len, batch=16, iters=3,
        ),
    )
    for mode, s in point["results"]["threaded"]["speedup_median"].items():
        assert s > 0.0
