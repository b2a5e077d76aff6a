"""The obs_overhead driver (the metrics-enabled overhead A/B) and the
policy contrast it reports on: one graph, two scheduler policies."""

from repro.core.graph_builder import build_brnn_graph
from repro.harness.measure import make_spec
from repro.obs.registry import MetricsRegistry
from repro.obs.report import measure_overhead
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import xeon_8160_2s


def _run_both_policies():
    """Run one tiny cost graph warm on eight simulated cores under the
    locality-aware and the FIFO policy; return the graph and each trace."""
    graph = build_brnn_graph(
        make_spec("lstm", 8, 8, 2), seq_len=8, batch=4, mbs=2
    ).graph
    traces = {}
    for policy in ("locality", "fifo"):
        registry = MetricsRegistry()
        sim = SimulatedExecutor(
            xeon_8160_2s(), n_cores=8, scheduler=policy, metrics=registry
        )
        sim.run(graph)  # warm: weights NUMA-homed / cache-resident
        traces[policy] = (sim.run(graph), registry)
    return graph, traces


def test_compare_policies_runs_same_graph_under_both():
    graph, traces = _run_both_policies()
    assert len(graph) > 0
    for name, (trace, registry) in traces.items():
        assert trace.scheduler_counters.pops == len(graph), name
        assert trace.makespan > 0
        assert 0 < trace.parallel_efficiency() <= 1
        assert any(k.startswith("repro_sched_pops_total") for k in registry.flat())


def test_locality_policy_wins_the_hit_rate_contrast():
    """The paper's Fig. 7 contrast restated as counters."""
    _, traces = _run_both_policies()
    loc = traces["locality"][0].scheduler_counters
    fifo = traces["fifo"][0].scheduler_counters
    assert loc.hinted_pushes == fifo.hinted_pushes > 0
    assert loc.locality_hit_rate >= fifo.locality_hit_rate


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

