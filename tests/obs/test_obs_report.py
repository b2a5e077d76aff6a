"""The obs_overhead driver: policy counter comparison and the overhead A/B."""

import pytest

from repro.obs.report import (
    compare_policies,
    measure_overhead,
    run_obs_report,
)

TINY = dict(
    input_size=8, hidden=8, layers=2, seq_len=8, batch=4, mbs=2, n_cores=8
)


def test_compare_policies_runs_same_graph_under_both():
    report = compare_policies("locality", "fifo", **TINY)
    assert set(report["policies"]) == {"locality", "fifo"}
    n_tasks = report["graph"]["n_tasks"]
    assert n_tasks > 0
    for name, block in report["policies"].items():
        assert block["counters"]["pops"] == n_tasks, name
        assert block["makespan_s"] > 0
        assert 0 < block["parallel_efficiency"] <= 1
        assert "repro_sched_pops_total" in block["metrics"]
    assert report["speedup_vs_compare"] > 0


def test_locality_policy_wins_the_hit_rate_contrast():
    """The paper's Fig. 7 contrast restated as counters."""
    report = compare_policies("locality", "fifo", **TINY)
    loc = report["policies"]["locality"]["counters"]
    fifo = report["policies"]["fifo"]["counters"]
    assert loc["hinted_pushes"] == fifo["hinted_pushes"] > 0
    assert loc["locality_hit_rate"] >= fifo["locality_hit_rate"]


def test_compare_policies_same_policy_deduplicates():
    report = compare_policies("locality", "locality", **TINY)
    assert list(report["policies"]) == ["locality"]
    assert report["speedup_vs_compare"] == pytest.approx(1.0)


def test_measure_overhead_shape_and_budget():
    # Shape only: the measured ratio is wall-clock, so the budget is a bar
    # of suite obs_overhead (repro.harness.ledger) gated by `make
    # smoke-obs`, not here.
    result = measure_overhead(
        input_size=64, hidden=64, seq_len=30, batch=16,
        mbs=1, n_workers=2, iters=5, warmup=1,
    )
    assert result["overhead_ratio"] > 0
    assert result["metric_names"] > 0
    for half in ("disabled", "enabled"):
        assert result[half]["median_s"] > 0
        assert result[half]["n"] == 5


def test_committed_baseline_holds_the_two_percent_claim():
    """The acceptance-criteria record: metrics within 2 % on the threaded
    bench, as recorded by ``python -m repro bench obs_overhead --record``."""
    from pathlib import Path

    from repro.harness.ledger import baseline_path, check_report, load_report

    root = Path(__file__).resolve().parents[2]
    report = load_report(str(root / baseline_path("obs_overhead")))
    assert check_report(report) == []
    assert report["results"]["overhead"]["overhead_ratio"] <= 1.02


def test_run_obs_report_envelope_without_overhead():
    point = run_obs_report(
        "locality", "fifo", n_cores=8, mbs=2, seq_len=8, batch=4,
        overhead=False,
    )
    assert point["config"]["policy"] == "locality"
    assert point["config"]["overhead"] is False
    assert "comparison" in point["results"]
    assert "overhead" not in point["results"]
