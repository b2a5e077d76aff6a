"""Fleet serving soak: replica scaling, admission shedding, warm plans.

The fleet benchmark (``repro.harness.fleetbench``, docs/SERVING.md) runs
entirely on the deterministic simulated machine with ``compile="on"``,
so its record — ``benchmarks/baselines/BENCH_fleet.json`` — is
bit-stable.  Its bars (suite ``fleet`` of ``repro.harness.ledger``):

* a 4-replica fleet sustains ≥ 3× the single-replica request rate at
  p99 SLO attainment ≥ 0.99 under a Poisson soak, while the same rate
  collapses a single replica (attainment < 0.9);
* bursty overload is shed at admission (token buckets + deadline
  budgets), not served late: sheds > 0 with completed-request
  attainment still ≥ 0.99;
* the per-shape warm compiled-plan hit rate after fleet-start warmup
  stays ≥ 0.9;
* the consistent-hash router compiles strictly fewer plans than
  least-loaded on the same workload (shape → home-replica affinity).
"""

import pytest

from benchmarks.common import run_once
from repro.harness.fleetbench import run_fleet_bench
from repro.harness.ledger import check_report, run_suite


def test_record_config(benchmark):
    """Calibrated soak: measure it and hold it to the ledger's bars."""
    report = run_once(benchmark, lambda: run_suite("fleet", scope="record"))
    assert check_report(report) == []


@pytest.mark.parametrize("replicas", [2, 4])
def test_fleet_scales_with_replicas(benchmark, replicas):
    """Attainment holds as the offered rate scales with the pool size."""
    point = run_once(
        benchmark,
        lambda: run_fleet_bench(
            replicas=replicas,
            rate_ratio=0.8 * replicas,
            duration_s=2.0,
        ),
    )
    fleet = point["results"]["fleet_at_fleet_rate"]
    assert fleet["attainment"] >= 0.99
    # the load actually spread: every replica served something
    assert len(fleet["routing"]) == replicas
