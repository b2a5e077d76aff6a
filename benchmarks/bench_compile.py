"""Graph compilation & cached plan replay on the serving hot path.

``repro.compile`` freezes a built task graph into a transitive-reduced,
list-scheduled :class:`~repro.compile.plan.CompiledPlan` that both
executors replay without re-resolving dependences per batch, cached per
``(config fingerprint, batch shape)``.  This bench quantifies it:

* **overhead** — cost-only graphs on the threaded executor (no payloads,
  so wall time is the runtime's own bookkeeping): replaying a compiled
  plan must beat dynamic dependence resolution under *every* measured
  policy (``reduction_ratio > 1``; the bars and the recorded size are
  suite ``compile`` of ``repro.harness.ledger``, and
  ``python -m repro bench compile --record`` rewrites
  ``benchmarks/baselines/BENCH_compile.json``).
* **serving** — a simulated ``compile="on"`` engine must hit the plan
  cache on every warm shape (``warm_hit_rate == 1.0``) and compile each
  shape exactly once.
* **equivalence** — compiled-plan replay is bitwise identical to the
  dynamic FIFO schedule on a functional training build.

Set ``REPRO_BENCH_FULL=1`` for the wider grids.
"""

import pytest

from benchmarks.common import full_grids, run_once
from repro.harness.compilebench import equivalence_section, serving_cache_stats
from repro.harness.ledger import check_report, run_suite
from repro.harness.measure import make_spec


def test_record_config(benchmark):
    """Recorded point: measure it and hold it to the ledger's bars."""
    report = run_once(benchmark, lambda: run_suite("compile", scope="record"))
    assert check_report(report) == []


@pytest.mark.parametrize("mbs", [1, 4] if full_grids() else [4])
def test_serving_cache_mbs(benchmark, mbs):
    """The warm-shape guarantee holds across chunking factors."""
    spec = make_spec("lstm", 64, 64, 2, "many_to_one")
    out = run_once(
        benchmark,
        lambda: serving_cache_stats(
            spec, [(40, 8), (20, 4)], mbs=mbs, sim_cores=8, repeats=3
        ),
    )
    assert out["warm_hit_rate"] == 1.0
    assert out["cache"]["compiles"] == out["n_shapes"]


@pytest.mark.parametrize("cell,head", [
    ("lstm", "many_to_one"),
    ("gru", "many_to_many"),
])
def test_equivalence_cells(benchmark, cell, head):
    """Replay equivalence holds for both cell types and heads."""
    out = run_once(benchmark, lambda: equivalence_section(cell, head))
    assert out["bitwise_identical"], out["mismatched_arrays"]
