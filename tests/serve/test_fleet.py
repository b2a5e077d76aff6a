"""Fleet serving: pool, routing, admission, warmup, metrics, determinism."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.models.params import BRNNParams
from repro.models.reference import reference_forward
from repro.models.spec import BRNNSpec
from repro.obs import MetricsRegistry
from repro.serve import (
    SHED_DEADLINE,
    SHED_TENANT,
    DynamicBatcher,
    FleetServer,
    InferenceEngine,
    InferenceRequest,
    ReplicaPool,
    RequestQueue,
    ServeConfig,
    Server,
    WorkloadConfig,
    poisson_workload,
    serve_fleet,
)
from repro.simarch.presets import laptop_sim


def tiny_spec():
    return BRNNSpec(cell="lstm", input_size=6, hidden_size=5, num_layers=1,
                    merge_mode="sum", head="many_to_one", num_classes=4)


def sim_execution(**kw):
    return ExecutionConfig(executor="sim", **kw)


def workload(rate=300.0, duration=0.5, seed=0, tenants=1):
    return poisson_workload(
        WorkloadConfig(rate_hz=rate, duration_s=duration,
                       seq_len_range=(4, 12), tenants=tenants),
        seed=seed,
    )


def test_fleet_run_is_deterministic():
    cfg = ServeConfig(replicas=3, max_batch_size=4, bucket_width=4,
                      deadline_slo_s=0.5)
    summaries = []
    for _ in range(2):
        stats = serve_fleet(
            tiny_spec(), workload(), cfg,
            execution=sim_execution(compile="on"), machine=laptop_sim(4),
        )
        summaries.append(stats.summary())
    assert summaries[0] == summaries[1]  # bit-identical, incl. percentiles


def test_accounting_and_per_replica_breakdown():
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4)
    stats = serve_fleet(
        tiny_spec(), workload(), cfg,
        execution=sim_execution(), machine=laptop_sim(4),
    )
    s = stats.summary()
    assert s["requests"]["completed"] + s["requests"]["shed"] == \
        s["requests"]["total"]
    fleet = s["fleet"]
    assert fleet["replicas"] == 2
    assert sum(fleet["routing"].values()) == s["requests"]["completed"]
    rows = fleet["per_replica"]
    assert sum(r["completed"] for r in rows) == s["requests"]["completed"]
    assert sum(r["batches"] for r in rows) == s["batches"]["count"]
    # least-loaded spreads a 300 req/s stream across both replicas
    assert all(r["routed"] > 0 for r in rows)


def test_pool_size_must_match_config():
    pool = ReplicaPool(tiny_spec(), ServeConfig(replicas=2),
                       execution=sim_execution(), machine=laptop_sim(4))
    assert len(pool) == 2
    with pytest.raises(ValueError, match="replicas"):
        FleetServer(pool, ServeConfig(replicas=3))


def test_warmup_precompiles_every_shape_on_home_replicas():
    cfg = ServeConfig(replicas=3, router="hash", max_batch_size=4,
                      bucket_width=4)
    server = FleetServer.build(
        tiny_spec(), cfg,
        execution=sim_execution(compile="on"), machine=laptop_sim(4),
    )
    stats = server.run(workload())
    # buckets 4/8/12 at full batch size, each compiled once fleet-wide
    assert stats.warmup_compiled == 3
    assert stats.warm_hit_rate() is not None
    # a warmed shape's very first served batch is already a cache hit
    full = [b for b in stats.batches if b.size == 4]
    assert full and all(b.warm for b in full)


def test_unwarmed_first_batch_of_a_shape_is_recorded_cold():
    cfg = ServeConfig(max_batch_size=4, bucket_width=4, warmup=False)
    server = FleetServer.build(
        tiny_spec(), cfg,
        execution=sim_execution(compile="on"), machine=laptop_sim(4),
    )
    stats = server.run(workload())
    assert stats.warmup_compiled == 0
    by_shape = {}
    for b in stats.batches:
        by_shape.setdefault(b.shape, []).append(b.warm)
    # cold is a known state, not "warmth unknown": an empty PlanCache is
    # falsy, and the loop must not read that as "no cache"
    assert any(len(warms) > 1 for warms in by_shape.values())
    for warms in by_shape.values():
        assert warms[0] is False and all(w is True for w in warms[1:])
    assert stats.warm_hit_rate() == 1 - len(by_shape) / len(stats.batches)


def test_warmup_skipped_without_plan_cache():
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4)
    server = FleetServer.build(
        tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
    )
    stats = server.run(workload(duration=0.2))
    assert stats.warmup_compiled == 0
    assert stats.warm_hit_rate() is None  # no cache, no warm dimension


def test_deadline_slo_is_stamped_and_enforced():
    """Requests get deadline = arrival + slo; hopeless ones are shed with
    the deadline reason, and nothing completes late."""
    cfg = ServeConfig(replicas=1, max_batch_size=1, bucket_width=4,
                      deadline_slo_s=1e-6)  # nothing can finish this fast
    stats = serve_fleet(
        tiny_spec(), workload(rate=50.0, duration=0.2), cfg,
        execution=sim_execution(), machine=laptop_sim(4),
    )
    s = stats.summary()
    # only cold-start dispatches (no service estimate yet) slip through;
    # everything queued behind them is shed before wasting engine time
    assert s["requests"]["completed"] <= 1
    assert s["requests"]["shed_reasons"].get(SHED_DEADLINE, 0) > 0
    assert s["requests"]["shed"] + s["requests"]["completed"] == \
        s["requests"]["total"]


def test_tenant_rate_limit_sheds_with_tenant_reason():
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4,
                      tenant_rate_hz=20.0, tenant_burst=2)
    stats = serve_fleet(
        tiny_spec(), workload(rate=400.0, duration=0.3, tenants=2), cfg,
        execution=sim_execution(), machine=laptop_sim(4),
    )
    reasons = stats.shed_reason_counts()
    assert reasons.get(SHED_TENANT, 0) > 0
    # both tenants got some service (the limiter is per-tenant, not global)
    served_tenants = {c.rid % 2 for c in stats.completed}
    assert served_tenants == {0, 1}


def test_fleet_metrics_families_are_published():
    registry = MetricsRegistry()
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4,
                      deadline_slo_s=1e-6)
    serve_fleet(
        tiny_spec(), workload(duration=0.2), cfg,
        execution=sim_execution(compile="on", metrics=registry),
        machine=laptop_sim(4),
    )
    names = set(registry.names())
    assert "repro_fleet_shed_total" in names
    assert "repro_fleet_replica_queue_depth" in names
    flat = registry.flat()
    shed = sum(v for k, v in flat.items() if k.startswith("repro_fleet_shed_total"))
    serve_shed = sum(
        v for k, v in flat.items()
        if k.startswith("repro_serve_shed_total")
    )
    assert shed == serve_shed > 0  # fleet and serve families agree


def test_replicas_share_parameters_and_match_the_oracle():
    """Functional replicas answer identically: whichever replica a request
    lands on, the logits equal the single-model oracle."""
    spec = tiny_spec()
    params = BRNNParams.initialize(spec, seed=7)
    rng = np.random.default_rng(2)
    requests = []
    for rid in range(8):
        x = rng.standard_normal((6, spec.input_size)).astype(np.float32)
        # simultaneous arrivals force least-loaded to spread the burst
        requests.append(InferenceRequest(rid=rid, seq_len=6,
                                         arrival_time=0.0, x=x))
    cfg = ServeConfig(replicas=2, max_batch_size=2, bucket_width=6,
                      max_wait=0.0, queue_capacity=16)
    pool = ReplicaPool(
        spec, cfg,
        execution=ExecutionConfig(executor="threaded", n_workers=2, mbs=2),
        params=params,
    )
    assert all(e.params is params for e in pool.engines)  # one weight set
    stats = FleetServer(pool, cfg).run(requests)
    assert len(stats.completed) == 8
    assert {c.replica for c in stats.completed} == {0, 1}
    for c in stats.completed:
        x = next(r.x for r in requests if r.rid == c.rid)
        oracle, _ = reference_forward(spec, params, x[:, None, :])
        np.testing.assert_allclose(c.result, oracle[0], rtol=1e-5, atol=1e-6)


def test_one_replica_fleet_samples_a_snapshot_per_batch():
    """What ``Server.snapshots`` exposed lives on the fleet loop."""
    cfg = ServeConfig(max_batch_size=4, bucket_width=4)
    server = FleetServer.build(
        tiny_spec(), cfg,
        execution=sim_execution(metrics=MetricsRegistry()), machine=laptop_sim(4),
    )
    stats = server.run(workload(duration=0.2))
    assert stats.batches and len(server.snapshots) == len(stats.batches)
    assert any(
        k.startswith("repro_serve_batches_total")
        for k in server.snapshots.snapshots[-1].values
    )
    # no registry, nothing to sample
    bare = FleetServer.build(
        tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
    )
    assert bare.snapshots is None


def test_server_is_the_one_replica_fleet():
    engine = InferenceEngine(tiny_spec(), machine=laptop_sim(4))
    with pytest.raises(ValueError, match="replicas"):
        Server(engine, ServeConfig(replicas=2))
    stats = Server(engine, ServeConfig(max_batch_size=4, bucket_width=4)).run(
        workload(duration=0.2)
    )
    assert stats.summary()["fleet"]["replicas"] == 1
    assert {c.replica for c in stats.completed} == {0}


def test_removed_keyword_spellings_raise_type_error():
    spec = tiny_spec()
    with pytest.raises(TypeError):
        BParEngine(spec, mbs=2)
    with pytest.raises(TypeError):
        InferenceEngine(spec, "sim")
    with pytest.raises(TypeError):
        RequestQueue(capacity=4)
    with pytest.raises(TypeError):
        DynamicBatcher(max_batch_size=2)
