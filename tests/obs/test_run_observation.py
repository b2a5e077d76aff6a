"""A run observed through what it leaves behind: its trace's records and the
registry's ``flat()`` values, read after the run or while it runs."""

import numpy as np

from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.obs.registry import MetricsRegistry
from repro.runtime.simexec import SimulatedExecutor
from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetServer
from repro.serve.request import InferenceRequest
from repro.simarch.presets import xeon_8160_2s
from tests.conftest import read_registry_per_batch


SPEC = BRNNSpec(
    cell="lstm", input_size=8, hidden_size=8, num_layers=2,
    merge_mode="sum", head="many_to_one", num_classes=3,
)


def test_simulated_trace_records_every_task():
    graph = build_brnn_graph(SPEC, seq_len=5, batch=4, mbs=2).graph
    trace = SimulatedExecutor(xeon_8160_2s(), n_cores=4).run(graph)
    assert sorted(r.tid for r in trace.records) == list(range(len(graph)))
    for r in trace.records:
        assert 0 <= r.core < 4
        assert r.end >= r.start


def test_threaded_engine_publishes_metrics(real_threads):
    # lift the granularity floor: a one-thread run is the registration order,
    # which has no scheduler and so publishes no repro_sched_* series
    registry = MetricsRegistry()
    engine = BParEngine(
        SPEC,
        config=ExecutionConfig(executor="threaded", n_workers=2, mbs=2, metrics=registry),
    )
    x = np.random.default_rng(0).standard_normal((5, 4, 8)).astype(np.float32)
    engine.forward(x)
    assert len(engine.last_trace.records) == len(engine.last_result.graph) > 0
    flat = registry.flat()
    assert flat["repro_exec_runs_total"] == 1.0
    assert any(k.startswith("repro_sched_pops_total") for k in flat)


def test_server_registry_read_per_batch_is_the_unified_registry(monkeypatch):
    registry = MetricsRegistry()
    snapshots = read_registry_per_batch(monkeypatch, registry)
    server = FleetServer.build(
        SPEC, ServeConfig(max_batch_size=4),
        execution=ExecutionConfig(executor="sim", n_workers=4, mbs=1, metrics=registry),
    )
    requests = [
        InferenceRequest(rid=i, seq_len=8, arrival_time=0.0) for i in range(4)
    ]
    stats = server.run(requests)
    # The batcher cut one batch of four; the registry read as it went to the
    # engine held the queue the batch was cut from.
    assert [b.size for b in stats.batches] == [4]
    assert len(snapshots) == 1
    assert snapshots[0]["repro_serve_queue_depth"] == 4.0
    # After the run it holds executor, scheduler and serving families...
    after = registry.flat()
    assert after["repro_exec_runs_total"] >= 1.0
    assert any(k.startswith("repro_serve_batches_total") for k in after)
    # ...and summary() embeds the same flat values.
    assert stats.summary()["metrics"] == after
