"""PlanCache: LRU behaviour, counters, metrics export."""

import pytest

from repro.compile import PlanCache, compile_graph
from repro.obs.registry import MetricsRegistry
from tests.compile.conftest import build_cost_only


def make_plan(seq_len=6):
    return compile_graph(build_cost_only(seq_len=seq_len).graph)


def key(i):
    return (10 + i, 4)


def test_miss_then_hit_counting():
    cache = PlanCache(capacity=4)
    assert cache.get(key(0)) is None
    assert (cache.hits, cache.misses) == (0, 1)
    plan = make_plan()
    cache.put(key(0), plan, payload="p")
    entry = cache.get(key(0))
    assert entry is not None and entry.plan is plan and entry.payload == "p"
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    assert cache.compiles == 1
    assert cache.stats()["size"] == 1 and key(0) in cache


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    plan = make_plan()
    cache.put(key(0), plan)
    cache.put(key(1), plan)
    cache.get(key(0))  # refresh 0 — key 1 becomes the LRU entry
    cache.put(key(2), plan)
    assert key(0) in cache and key(2) in cache
    assert key(1) not in cache
    assert cache.evictions == 1


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        PlanCache(capacity=0)


def test_stats_shape():
    cache = PlanCache()
    cache.put(key(0), make_plan())
    stats = cache.stats()
    for field in (
        "hits", "misses", "evictions", "compiles",
        "size", "capacity", "hit_rate", "last_compile_s",
    ):
        assert field in stats
    assert stats["last_compile_s"] > 0.0


def test_metrics_delta_publishing():
    registry = MetricsRegistry()
    cache = PlanCache(metrics=registry)
    plan = make_plan()
    cache.get(key(0))
    cache.put(key(0), plan)
    cache.get(key(0))
    cache.get(key(0))
    flat = registry.flat()
    assert flat["repro_compile_cache_hits_total"] == 2
    assert flat["repro_compile_cache_misses_total"] == 1
    assert flat["repro_compile_plans_compiled_total"] == 1
    assert flat["repro_compile_cache_size"] == 1
    # wall-clock stays out of the registry: it would break the sim
    # serving report's bit-reproducibility
    assert not any("last_compile" in name for name in flat)
    # publishing the same snapshot again must not double-count (deltas)
    from repro.obs.publish import publish_plan_cache

    publish_plan_cache(registry, cache.stats())
    assert registry.flat()["repro_compile_cache_hits_total"] == 2



def test_no_stale_plan_cache_hit_across_fusion_modes():
    """A plan compiled under one tile or hoisting mode is invisible to every
    other mode: each engine owns its cache, keyed by shape alone."""
    from repro.config import ExecutionConfig
    from repro.serve.engine import InferenceEngine
    from tests.compile.conftest import tiny_spec

    shape = (6, 4)
    tiled = InferenceEngine(
        tiny_spec(), config=ExecutionConfig(executor="sim", compile="on", wavefront_tile=4)
    )
    tiled.warmup([shape])
    assert shape in tiled.plan_cache
    for other in (ExecutionConfig(), ExecutionConfig(fused_input_projection="on"),
                  ExecutionConfig(fused_input_projection="on", wavefront_tile=4)):
        engine = InferenceEngine(
            tiny_spec(), config=other.replace(executor="sim", compile="on")
        )
        assert shape not in engine.plan_cache
        assert engine.plan_cache is not tiled.plan_cache
