"""InferenceEngine with ``compile="on"``: the cached-plan hot path."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
import repro.serve.engine as engine_module
from repro.obs.registry import MetricsRegistry
from repro.runtime import racecheck
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.simexec import SimulatedExecutor
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
        params=params,
        config=ExecutionConfig(
            executor="threaded", n_workers=2, mbs=2,
            compile=compile_mode, metrics=metrics, seed=3,
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
    compiled.execute(make_batch(spec, 0, seed=11))  # miss: build + compile
    warm = compiled.execute(make_batch(spec, 1, seed=22))  # hit: replay
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
    spec = tiny_spec()
    a = threaded_engine(spec, "on")
    b = InferenceEngine(
        spec,
        params=a.params,
        config=ExecutionConfig(
            executor="threaded", n_workers=2, mbs=1, compile="on", seed=3
        ),
    )
    assert a._config_fingerprint != b._config_fingerprint


@pytest.mark.parametrize("executor", ["sim", "threaded"])
def test_a_restored_plan_cache_serves_warm_without_recompiling(executor, tmp_path):
    spec = tiny_spec()
    first = ENGINES[executor](spec, "on")
    batch = make_batch(spec, 0, seed=5, with_x=executor != "sim")
    served = first.execute(batch)
    path = str(tmp_path / "plans.json")
    first.plan_cache.save(path)

    restarted = ENGINES[executor](spec, "on", params=first.params)
    assert restarted.plan_cache.load(path) == 1
    again = restarted.execute(batch)  # the entry arrives without its payload
    assert again.warm
    assert restarted.plan_cache.stats()["compiles"] == 0
    if executor == "sim":
        assert again.service_time_s == served.service_time_s
    else:
        np.testing.assert_array_equal(again.logits, served.logits)
    # the rebuilt payload stays with the entry: the next hit is an ordinary one
    assert restarted.execute(batch).warm
    assert restarted.plan_cache.stats()["compiles"] == 0


@pytest.mark.parametrize("compile_mode", ["off", "on"])
@pytest.mark.parametrize("executor", ["sim", "threaded"])
def test_validate_dependencies_audits_a_clean_shape_once(executor, compile_mode, monkeypatch):
    audits = []
    real = racecheck.ordering_findings

    def counting(graph, *args, **kwargs):
        audits.append(len(graph))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(racecheck, "ordering_findings", counting)
    spec = tiny_spec()
    engine = ENGINES[executor](spec, compile_mode, validate_dependencies=True)
    for bid in range(3):
        engine.execute(make_batch(spec, bid, seed=bid, with_x=executor != "sim"))
    assert len(audits) == 1
    engine.execute(make_batch(spec, 3, seq_len=6, with_x=executor != "sim"))
    assert len(audits) == 2  # a new shape is a new graph


@pytest.mark.parametrize("compile_mode", ["off", "on"])
@pytest.mark.parametrize("executor", ["sim", "threaded"])
def test_validate_dependencies_refuses_a_racy_graph_before_running_it(
    executor, compile_mode, monkeypatch
):
    real_build = engine_module.build_brnn_graph

    def build_with_a_dropped_edge(*args, **kwargs):
        result = real_build(*args, **kwargs)
        a, b = racecheck.order_defining_edges(result.graph)[0]
        result.graph.successors[a].remove(b)
        return result

    runs = []
    substrate = {"sim": SimulatedExecutor, "threaded": ThreadedExecutor}[executor]
    monkeypatch.setattr(engine_module, "build_brnn_graph", build_with_a_dropped_edge)
    monkeypatch.setattr(substrate, "run", lambda self, graph, plan=None: runs.append(graph))
    spec = tiny_spec()
    engine = ENGINES[executor](spec, compile_mode, validate_dependencies=True)
    with pytest.raises(racecheck.RaceError):
        engine.execute(make_batch(spec, 0, with_x=executor != "sim"))
    assert not runs
    if compile_mode == "on":
        assert len(engine.plan_cache) == 0
