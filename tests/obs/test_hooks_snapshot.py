"""Live profiling hooks, registry snapshots, and the traceviz counter tracks."""

import json

import numpy as np
import pytest

from repro.analysis.traceviz import to_chrome_trace
from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.obs.hooks import CallbackHooks, ProfilingHooks
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import SnapshotLog
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetServer
from repro.serve.request import InferenceRequest
from repro.simarch.presets import xeon_8160_2s


SPEC = BRNNSpec(
    cell="lstm", input_size=8, hidden_size=8, num_layers=2,
    merge_mode="sum", head="many_to_one", num_classes=3,
)


class RecordingHooks(ProfilingHooks):
    def __init__(self):
        self.starts = []
        self.ends = []
        self.flushes = []

    def on_task_start(self, task, core, t):
        self.starts.append((task.name, core, t))

    def on_task_end(self, task, core, t):
        self.ends.append((task.name, core, t))

    def on_batch_flush(self, batch, t):
        self.flushes.append((batch.size, t))


def test_simulated_executor_invokes_hooks_per_task():
    graph = build_brnn_graph(SPEC, seq_len=5, batch=4, mbs=2).graph
    hooks = RecordingHooks()
    sim = SimulatedExecutor(xeon_8160_2s(), n_cores=4, hooks=hooks)
    sim.run(graph)
    assert len(hooks.starts) == len(graph)
    assert len(hooks.ends) == len(graph)
    by_name = {name: t for name, _, t in hooks.starts}
    for name, core, t_end in hooks.ends:
        assert 0 <= core < 4
        assert t_end >= by_name[name]


def test_threaded_engine_invokes_hooks_and_publishes_metrics(real_threads):
    # lift the granularity floor: a one-thread run is the registration order,
    # which has no scheduler and so publishes no repro_sched_* series
    hooks = RecordingHooks()
    registry = MetricsRegistry()
    engine = BParEngine(
        SPEC,
        config=ExecutionConfig(
            executor="threaded", n_workers=2, mbs=2,
            metrics=registry, hooks=hooks,
        ),
    )
    x = np.random.default_rng(0).standard_normal((5, 4, 8)).astype(np.float32)
    engine.forward(x)
    assert len(hooks.starts) == len(hooks.ends) > 0
    flat = registry.flat()
    assert flat["repro_exec_runs_total"] == 1.0
    assert any(k.startswith("repro_sched_pops_total") for k in flat)


def test_callback_hooks_only_invoke_attached_events():
    steals = []
    hooks = CallbackHooks(on_steal=lambda task, thief, victim: steals.append(thief))
    hooks.on_task_start(None, 0, 0.0)  # no-op, must not raise
    hooks.on_batch_flush(None, 0.0)
    hooks.on_steal(None, 3, 1)
    assert steals == [3]


def test_server_flush_hook_snapshots_and_unified_registry():
    hooks = RecordingHooks()
    registry = MetricsRegistry()
    server = FleetServer.build(
        SPEC, ServeConfig(max_batch_size=4),
        execution=ExecutionConfig(
            executor="sim", n_workers=4, mbs=1, metrics=registry, hooks=hooks,
        ),
        keep_traces=True,
    )
    requests = [
        InferenceRequest(rid=i, seq_len=8, arrival_time=0.0) for i in range(4)
    ]
    stats = server.run(requests)
    # The batcher cut at least one batch and told the hooks about it.
    assert hooks.flushes and hooks.flushes[0][0] == 4
    # The serving loop sampled the shared registry after each batch...
    assert server.snapshots is not None
    assert len(server.snapshots) >= 1
    # ...which by then held executor, scheduler and serving families.
    sampled = server.snapshots.snapshots[-1].values
    assert sampled["repro_exec_runs_total"] >= 1.0
    assert any(k.startswith("repro_serve_requests_total") for k in sampled)
    # summary() embeds the registry dump when a registry is attached
    assert "repro_serve_batches_total" in stats.summary()["metrics"]


class TestSnapshotLog:
    def test_sample_and_series(self):
        reg = MetricsRegistry()
        depth = reg.gauge("depth")
        log = SnapshotLog(reg)
        depth.set(1)
        log.sample(0.0)
        depth.set(5)
        log.sample(1.0)
        assert len(log) == 2
        assert log.series("depth") == [(0.0, 1.0), (1.0, 5.0)]
        assert log.series("missing") == []

    def test_maybe_sample_honours_interval(self):
        reg = MetricsRegistry()
        log = SnapshotLog(reg, interval_s=1.0)
        assert log.maybe_sample(0.0) is not None
        assert log.maybe_sample(0.5) is None  # too soon
        assert log.maybe_sample(1.5) is not None
        assert len(log) == 2


def test_chrome_trace_embeds_counter_events():
    trace = ExecutionTrace(n_cores=1)
    trace.records.append(
        TaskRecord(tid=0, name="t", kind="cell", core=0, start=0.0, end=1e-3)
    )
    reg = MetricsRegistry()
    reg.gauge("queue_depth").set(3)
    log = SnapshotLog(reg)
    log.sample(5e-4)
    events = json.loads(json.dumps(to_chrome_trace(trace, snapshots=log)))
    counters = [e for e in events["traceEvents"] if e.get("ph") == "C"]
    assert counters == [
        {
            "name": "queue_depth",
            "ph": "C",
            "pid": 0,
            "ts": pytest.approx(500.0),
            "args": {"value": 3.0},
        }
    ]
    # Task events still present alongside the counter track.
    assert any(e.get("ph") == "X" for e in events["traceEvents"])
