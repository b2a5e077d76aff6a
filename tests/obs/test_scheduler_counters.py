"""Scheduler counter accounting.

The steal scenario mirrors ``tests/runtime/test_scheduler_steal_perf.py``
exactly — that suite pins the victim-selection *behavior* (most-loaded
victim, lowest core id on ties, oldest entry stolen); this one pins the
*counters* the same pop sequence must produce.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.scheduler import (
    FIFOScheduler,
    FuzzScheduler,
    LocalityAwareScheduler,
    RecordingScheduler,
)
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import Task
from repro.simarch.presets import xeon_8160_2s


def mk(name):
    return Task(name, None)


def push_pinned_scenario(s):
    """The exact steal scenario of test_scheduler_steal_perf.py."""
    for name in ("a0", "a1"):
        s.push(mk(name), hint=5)
    for name in ("b0", "b1", "b2"):
        s.push(mk(name), hint=2)
    for name in ("c0", "c1", "c2"):
        s.push(mk(name), hint=6)


@pytest.mark.parametrize("cls", [LocalityAwareScheduler])
class TestStealCounters:
    def test_pinned_steal_sequence_counted(self, cls):
        s = cls(8)
        push_pinned_scenario(s)
        # Pinned pop order for core 0: steal from core 2, then 6, then 2.
        assert [s.pop(0).name for _ in range(3)] == ["b0", "c0", "b1"]
        c = s.counters
        assert c.pushes == 8
        assert c.hinted_pushes == 8
        assert c.pops == 3
        assert c.steals == 3
        assert c.steal_distance_total == abs(0 - 2) + abs(0 - 6) + abs(0 - 2)
        assert c.mean_steal_distance == pytest.approx(10 / 3)
        # All three hinted tasks ran away from their hinted core.
        assert c.locality_hits == 0
        assert c.locality_misses == 3
        assert c.locality_hit_rate == 0.0

    def test_own_queue_pop_is_a_locality_hit_not_a_steal(self, cls):
        s = cls(8)
        s.push(mk("t"), hint=3)
        assert s.pop(3).name == "t"
        c = s.counters
        assert (c.steals, c.locality_hits, c.locality_misses) == (0, 1, 0)
        assert c.locality_hit_rate == 1.0


@pytest.mark.parametrize("cls", [FIFOScheduler, LocalityAwareScheduler])
class TestCommonCounters:
    def test_empty_pop_counts_starvation_not_pops(self, cls):
        s = cls(4)
        assert s.pop(0) is None
        assert s.pop(1) is None
        assert s.counters.starvation_stalls == 2
        assert s.counters.pops == 0

    def test_queue_depth_sampled_on_push(self, cls):
        s = cls(4)
        for i in range(8):
            s.push(mk(f"t{i}"), hint=i % 4)
        c = s.counters
        assert c.depth_samples == 8
        assert c.depth_max == 8
        assert c.mean_queue_depth == pytest.approx(sum(range(1, 9)) / 8)

    def test_unhinted_tasks_score_neither_hit_nor_miss(self, cls):
        s = cls(4)
        s.push(mk("t0"))
        s.push(mk("t1"))
        while s:
            s.pop(3)
        c = s.counters
        assert c.pops == 2
        assert c.hinted_pushes == 0
        assert (c.locality_hits, c.locality_misses) == (0, 0)
        assert c.locality_hit_rate == 1.0  # vacuously perfect


def test_fifo_is_locality_oblivious_but_still_accounts():
    """Policy-independent accounting: FIFO ignores hints yet scores them."""
    s = FIFOScheduler(4)
    s.push(mk("t0"), hint=0)
    s.push(mk("t1"), hint=3)
    assert s.pop(0).name == "t0"  # hinted 0, popped on 0: hit
    assert s.pop(0).name == "t1"  # hinted 3, popped on 0: miss
    c = s.counters
    assert (c.locality_hits, c.locality_misses) == (1, 1)
    assert c.locality_hit_rate == 0.5
    assert c.steals == 0  # a global queue never steals


def test_recording_scheduler_delegates_counters():
    inner = FIFOScheduler(2)
    rec = RecordingScheduler(inner)
    rec.push(mk("t"), hint=1)
    rec.pop(1)
    assert rec.counters is inner.counters
    assert rec.counters.pops == 1
    assert rec.counters.locality_hits == 1


# -- executor integration -----------------------------------------------------


def _tiny_graph():
    from repro.core.graph_builder import build_brnn_graph
    from repro.models.spec import BRNNSpec

    spec = BRNNSpec(
        cell="lstm", input_size=8, hidden_size=8, num_layers=2,
        merge_mode="sum", head="many_to_one", num_classes=3,
    )
    return build_brnn_graph(spec, seq_len=6, batch=4, mbs=2).graph


def test_single_core_run_has_perfect_hit_rate():
    """Every hint on a 1-core machine is core 0, so every hinted pop hits."""
    graph = _tiny_graph()
    sim = SimulatedExecutor(
        xeon_8160_2s(), n_cores=1, scheduler="locality", metrics=MetricsRegistry()
    )
    trace = sim.run(graph)
    c = trace.scheduler_counters
    assert c.pops == len(graph)
    assert c.steals == 0
    assert c.locality_misses == 0
    assert c.locality_hit_rate == 1.0


def test_fuzz_counters_deterministic_per_seed():
    graph = _tiny_graph()

    def counters_for(seed):
        sim = SimulatedExecutor(
            xeon_8160_2s(), n_cores=4, scheduler=f"fuzz:{seed}"
        )
        return sim.run(graph).scheduler_counters

    assert counters_for(7) == counters_for(7)  # the dataclass compares every field
    a, b = counters_for(7), counters_for(8)
    # Totals are seed-independent (same graph fully drained)...
    assert a.pops == b.pops == len(graph)
    assert a.pushes == b.pushes


def test_fuzz_scheduler_pop_sequence_is_seeded():
    def drain(seed):
        s = FuzzScheduler(seed=seed)
        for i in range(16):
            s.push(mk(f"t{i}"))
        return [s.pop(0).name for _ in range(16)]

    assert drain(3) == drain(3)
    assert drain(3) != drain(4)
