"""InferenceEngine with ``compile="on"``: the per-shape cache.

On a real executor an entry holds the shape's graph build (rebound and run
on every warm batch, dependences resolved dynamically); on ``sim`` it holds
a compiled plan's replayed service time."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.models.params import BRNNParams
from repro.obs.registry import MetricsRegistry
from repro.serve.batcher import Batch
from repro.serve.engine import InferenceEngine
from repro.serve.request import InferenceRequest
from tests.conftest import small_spec


def tiny_spec(head="many_to_many"):
    return small_spec(
        head=head, num_layers=2, hidden_size=4, input_size=5, num_classes=3
    )


def make_batch(spec, bid, seq_len=4, size=4, seed=0, with_x=True):
    rng = np.random.default_rng(seed)
    requests = [
        InferenceRequest(
            rid=f"b{bid}-{i}",
            seq_len=seq_len,
            arrival_time=0.0,
            x=(
                rng.standard_normal((seq_len, spec.input_size)).astype(spec.dtype)
                if with_x else None
            ),
        )
        for i in range(size)
    ]
    return Batch(
        batch_id=bid, requests=requests, padded_len=seq_len,
        trigger="test", cut_time=0.0,
    )


def threaded_engine(spec, compile_mode, params=None, metrics=None, **engine_kw):
    return InferenceEngine(
        spec,
        params=params if params is not None else BRNNParams.initialize(spec, 3),
        config=ExecutionConfig(
            executor="threaded", n_workers=2, mbs=2, compile=compile_mode, metrics=metrics
        ),
        **engine_kw,
    )


def sim_engine(spec, compile_mode, **engine_kw):
    return InferenceEngine(
        spec,
        config=ExecutionConfig(executor="sim", n_workers=8, mbs=2, compile=compile_mode),
        **engine_kw,
    )


ENGINES = {"sim": sim_engine, "threaded": threaded_engine}


def test_off_mode_has_no_cache():
    engine = threaded_engine(tiny_spec(), "off")
    assert engine.plan_cache is None


def test_threaded_warm_hit_bitwise_identical_to_dynamic():
    spec = tiny_spec()
    compiled = threaded_engine(spec, "on")
    compiled.execute(make_batch(spec, 0, seed=11))  # miss: build
    warm = compiled.execute(make_batch(spec, 1, seed=22))  # hit: rebind + run
    assert compiled.plan_cache.stats()["hits"] == 1

    dynamic = threaded_engine(spec, "off", params=compiled.params)
    reference = dynamic.execute(make_batch(spec, 1, seed=22))
    np.testing.assert_array_equal(warm.logits, reference.logits)


def test_threaded_warm_hits_keep_serving_fresh_data():
    spec = tiny_spec()
    engine = threaded_engine(spec, "on")
    dynamic = threaded_engine(spec, "off", params=engine.params)
    engine.execute(make_batch(spec, 0, seed=1))
    for seed in (2, 3, 4):  # three different warm batches, same shape
        got = engine.execute(make_batch(spec, seed, seed=seed))
        want = dynamic.execute(make_batch(spec, seed, seed=seed))
        np.testing.assert_array_equal(got.logits, want.logits)
    assert engine.plan_cache.stats()["hits"] == 3
    assert engine.plan_cache.stats()["compiles"] == 1


def test_threaded_entry_holds_the_build_and_no_plan(monkeypatch):
    from repro.serve import engine as engine_module

    def no_compile(*args, **kwargs):
        raise AssertionError("a functional engine compiled a plan")

    monkeypatch.setattr(engine_module, "compile_graph", no_compile)
    spec = tiny_spec()
    engine = threaded_engine(spec, "on")
    assert engine.warmup([(4, 4)]) == 1
    assert engine.execute(make_batch(spec, 0)).warm
    entry = engine.plan_cache.get((4, 4))
    assert entry.plan is None and entry.payload.graph is not None


def test_on_compiles_at_first_sight():
    spec = tiny_spec()
    engine = threaded_engine(spec, "on")
    engine.execute(make_batch(spec, 0))
    assert engine.plan_cache.stats()["compiles"] == 1
    engine.execute(make_batch(spec, 1))
    assert engine.plan_cache.stats()["hits"] == 1


def test_sim_mode_plan_cache_replaces_cost_memo():
    spec = tiny_spec()
    engine = InferenceEngine(
        spec,
        config=ExecutionConfig(executor="sim", n_workers=8, mbs=2, compile="on"),
    )
    first = engine.execute(make_batch(spec, 0, with_x=False))
    second = engine.execute(make_batch(spec, 1, with_x=False))
    assert engine.plan_cache.stats() == pytest.approx(
        {**engine.plan_cache.stats()}
    )  # smoke: stats() is stable
    assert engine.plan_cache.stats()["hits"] == 1
    assert engine.plan_cache.stats()["misses"] == 1
    # memoised service time: identical for identical shapes
    assert second.service_time_s == first.service_time_s


def test_round_robin_shape_mix_compiles_each_shape_once_then_always_hits():
    """Four rounds over two batch shapes: the first round compiles one plan
    per shape, every later batch replays one."""
    spec = tiny_spec()
    engine = sim_engine(spec, "on")
    shapes = [(6, 4), (3, 2)]
    rounds = 4
    for r in range(rounds):
        for i, (seq_len, size) in enumerate(shapes):
            batch = make_batch(spec, r * len(shapes) + i, seq_len=seq_len,
                               size=size, with_x=False)
            assert engine.execute(batch).warm == (r > 0)
    stats = engine.plan_cache.stats()
    assert stats["compiles"] == stats["misses"] == len(shapes)
    assert stats["hits"] == (rounds - 1) * len(shapes)


def test_sim_service_time_close_to_dynamic():
    spec = tiny_spec()
    compiled = InferenceEngine(
        spec, config=ExecutionConfig(executor="sim", n_workers=8, mbs=2, compile="on")
    )
    dynamic = InferenceEngine(
        spec, config=ExecutionConfig(executor="sim", n_workers=8, mbs=2)
    )
    a = compiled.execute(make_batch(spec, 0, with_x=False)).service_time_s
    b = dynamic.execute(make_batch(spec, 0, with_x=False)).service_time_s
    # same machine, same graph; replay skips the per-batch creation charge
    assert a <= b
    assert a == pytest.approx(b, rel=0.5)


def test_sim_compiled_metrics_bit_reproducible():
    # same seed, same report — even with compile="on" the metrics block
    # must not leak wall-clock (regression: last_compile_s gauge)
    spec = tiny_spec()

    def run():
        registry = MetricsRegistry()
        engine = InferenceEngine(
            spec,
            config=ExecutionConfig(
                executor="sim", n_workers=8, mbs=2, compile="on",
                metrics=registry,
            ),
        )
        engine.execute(make_batch(spec, 0, with_x=False))
        engine.execute(make_batch(spec, 1, with_x=False))
        return registry.flat()

    assert run() == run()


def test_counters_exported_through_obs():
    spec = tiny_spec()
    registry = MetricsRegistry()
    engine = threaded_engine(spec, "on", metrics=registry)
    engine.execute(make_batch(spec, 0, seed=1))
    engine.execute(make_batch(spec, 1, seed=2))
    flat = registry.flat()
    assert flat["repro_compile_cache_hits_total"] == 1
    assert flat["repro_compile_cache_misses_total"] == 1
    assert flat["repro_compile_plans_compiled_total"] == 1
    assert flat["repro_compile_hit_rate"] == 0.5


def test_distinct_configs_do_not_share_plans():
    """Each engine owns its cache: a shape warm on one config is cold on
    another, whatever the shapes have in common."""
    spec = tiny_spec()
    a = threaded_engine(spec, "on")
    b = InferenceEngine(
        spec,
        params=a.params,
        config=ExecutionConfig(executor="threaded", n_workers=2, mbs=1, compile="on"),
    )
    batch = make_batch(spec, 0, seed=1)
    assert not a.execute(batch).warm and a.execute(batch).warm
    assert (batch.padded_len, batch.size) not in b.plan_cache
    assert not b.execute(batch).warm
