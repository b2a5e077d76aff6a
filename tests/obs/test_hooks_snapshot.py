"""Live profiling hooks and registry snapshots read through ``flat()``."""

import numpy as np

from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.spec import BRNNSpec
from repro.obs.hooks import CallbackHooks, ProfilingHooks
from repro.obs.registry import MetricsRegistry
from repro.runtime.simexec import SimulatedExecutor
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
    registry = MetricsRegistry()
    hooks = RecordingHooks()
    snapshots = []
    hooks.on_batch_flush = lambda batch, t: snapshots.append((batch.size, registry.flat()))
    server = FleetServer.build(
        SPEC, ServeConfig(max_batch_size=4),
        execution=ExecutionConfig(
            executor="sim", n_workers=4, mbs=1, metrics=registry, hooks=hooks,
        ),
    )
    requests = [
        InferenceRequest(rid=i, seq_len=8, arrival_time=0.0) for i in range(4)
    ]
    stats = server.run(requests)
    # The batcher cut one batch of four and told the hooks about it; the
    # registry read at the flush held the queue the batch was cut from.
    assert [size for size, _ in snapshots] == [4]
    assert snapshots[0][1]["repro_serve_queue_depth"] == 4.0
    # After the run it holds executor, scheduler and serving families...
    after = registry.flat()
    assert after["repro_exec_runs_total"] >= 1.0
    assert any(k.startswith("repro_serve_batches_total") for k in after)
    # ...and summary() embeds the same flat values.
    assert stats.summary()["metrics"] == after
