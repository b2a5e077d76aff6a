"""Fleet serving: pool, routing, admission, warmup, metrics, determinism."""

import hashlib

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
    Batch,
    DynamicBatcher,
    FleetServer,
    InferenceEngine,
    InferenceRequest,
    ReplicaPool,
    RequestQueue,
    ServeConfig,
    WorkloadConfig,
    bursty_workload,
    poisson_workload,
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
        stats = FleetServer.build(
            tiny_spec(), cfg,
            execution=sim_execution(compile="on"), machine=laptop_sim(4),
        ).run(workload())
        summaries.append(stats.summary())
    assert summaries[0] == summaries[1]  # bit-identical, incl. percentiles


def test_accounting_and_per_replica_breakdown():
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4)
    stats = FleetServer.build(
        tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
    ).run(workload())
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


def test_fleet_serves_under_its_pools_config():
    cfg = ServeConfig(replicas=2)
    pool = ReplicaPool(tiny_spec(), cfg,
                       execution=sim_execution(), machine=laptop_sim(4))
    assert len(pool) == 2
    assert FleetServer(pool).config is cfg


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
    engine = InferenceEngine(tiny_spec(), config=sim_execution(compile="on"),
                             machine=laptop_sim(4))

    def batch(batch_id, padded_len, size):
        requests = [InferenceRequest(rid=i, seq_len=padded_len, arrival_time=0.0)
                    for i in range(size)]
        return Batch(batch_id, requests, padded_len, "full", 0.0)

    # cold is a known state, not "warmth unknown": an empty PlanCache is
    # falsy, and the engine must not read that as "no cache"
    warms = [engine.execute(batch(i, *shape)).warm
             for i, shape in enumerate([(8, 2), (8, 2), (12, 2), (8, 2), (12, 2)])]
    assert warms == [False, True, False, True, True]
    assert engine.plan_cache.stats()["misses"] == 2


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
    stats = FleetServer.build(
        tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
    ).run(workload(rate=50.0, duration=0.2))
    s = stats.summary()
    # only cold-start dispatches (no service estimate yet) slip through;
    # everything queued behind them is shed before wasting engine time
    assert s["requests"]["completed"] <= 1
    assert s["requests"]["shed_reasons"].get(SHED_DEADLINE, 0) > 0
    assert s["requests"]["shed"] + s["requests"]["completed"] == \
        s["requests"]["total"]


def test_slo_deadline_is_the_runs_own_not_written_into_the_requests():
    """A list served once under a tight SLO serves a second time under a
    loose one exactly as a fresh list does: the defaulted deadline lives in
    the run's copy of each request, and the caller's requests stay as given."""
    def serve(slo, requests):
        cfg = ServeConfig(replicas=4, max_batch_size=4, bucket_width=4,
                          deadline_slo_s=slo)
        return FleetServer.build(
            tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
        ).run(requests)

    requests = workload(rate=3000.0, duration=0.2, seed=3)
    fresh = serve(10.0, workload(rate=3000.0, duration=0.2, seed=3))
    tight = serve(0.005, requests)
    assert tight.shed_reason_counts().get(SHED_DEADLINE, 0) > 0
    assert serve(10.0, requests).summary() == fresh.summary()
    assert all(r.deadline is None for r in requests)
    # the records carry the deadline the run applied
    assert all(c.deadline == c.arrival_time + 10.0 for c in fresh.completed)


def test_overload_decisions_are_pinned():
    """Every completion and shed of a short seeded overload run, in order.

    The shape of bench/'s ``serve_overload`` (least-loaded routing, two
    tenants, a 50 ms SLO, continuous batching) on the sim engine: the
    digest changes exactly when some admission, expiry, routing or
    batching decision does.  Re-record it only for a change that means to
    alter a decision.
    """
    spec = BRNNSpec(cell="lstm", input_size=39, hidden_size=128, num_layers=2,
                    head="many_to_one", num_classes=11)
    cfg = ServeConfig(replicas=4, router="least_loaded", batcher="continuous",
                      deadline_slo_s=0.05, tenant_rate_hz=1300.0,
                      max_batch_size=8, bucket_width=20, queue_capacity=256)
    requests = bursty_workload(
        WorkloadConfig(rate_hz=3000.0, duration_s=0.5, seq_len_range=(20, 60),
                       tenants=2),
        seed=11,
    )
    stats = FleetServer.build(
        spec, cfg, execution=sim_execution(compile="on"),
    ).run(requests)
    assert (len(requests), len(stats.completed)) == (6018, 614)
    assert stats.shed_reason_counts() == {SHED_DEADLINE: 700, SHED_TENANT: 4704}
    digest = hashlib.sha256()
    for c in stats.completed:
        digest.update(f"c {c.rid} {c.batch_id} {c.finish_time!r}\n".encode())
    for r, why in stats.shed_records:
        digest.update(f"s {r.rid} {why}\n".encode())
    assert digest.hexdigest() == (
        "419ada7d60d2c2872f72ee8fde29ec3f59541b29c3a60df08b35ef6ab95c1180"
    )


def test_tenant_rate_limit_sheds_with_tenant_reason():
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4,
                      tenant_rate_hz=20.0)
    stats = FleetServer.build(
        tiny_spec(), cfg, execution=sim_execution(), machine=laptop_sim(4),
    ).run(workload(rate=400.0, duration=0.3, tenants=2))
    reasons = stats.shed_reason_counts()
    assert reasons.get(SHED_TENANT, 0) > 0
    # both tenants got some service (the limiter is per-tenant, not global)
    served_tenants = {c.rid % 2 for c in stats.completed}
    assert served_tenants == {0, 1}


def test_fleet_metrics_families_are_published():
    registry = MetricsRegistry()
    cfg = ServeConfig(replicas=2, max_batch_size=4, bucket_width=4,
                      deadline_slo_s=1e-6)
    FleetServer.build(
        tiny_spec(), cfg,
        execution=sim_execution(compile="on", metrics=registry),
        machine=laptop_sim(4),
    ).run(workload(duration=0.2))
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


def _fleet_snapshots(replicas, rate, duration, seed):
    """A sim fleet with compiled plans and a registry: its stats and the
    registry snapshots the loop took after every batch."""
    cfg = ServeConfig(replicas=replicas, max_batch_size=4, bucket_width=4)
    server = FleetServer.build(
        tiny_spec(), cfg,
        execution=sim_execution(compile="on", metrics=MetricsRegistry()),
        machine=laptop_sim(4),
    )
    stats = server.run(workload(rate=rate, duration=duration, seed=seed))
    return stats, [snap.values for snap in server.snapshots.snapshots]


def test_serve_queue_depth_is_the_fleet_total():
    """``repro_serve_queue_depth`` is the sum of every replica's latest
    depth, not the depth of the replica that reported last."""
    _, snapshots = _fleet_snapshots(replicas=3, rate=4000.0, duration=0.05, seed=1)
    assert len(snapshots) > 10
    overlapping = 0
    for values in snapshots:
        per_replica = [values.get(f'repro_fleet_replica_queue_depth{{replica="{r}"}}', 0.0)
                       for r in range(3)]
        assert values["repro_serve_queue_depth"] == sum(per_replica)
        overlapping += sum(1 for d in per_replica if d > 0) > 1
    assert overlapping  # some snapshot has a backlog on two replicas at once


def test_warm_hit_rate_gauge_is_the_rate_so_far():
    """At every snapshot the gauge is the warm share of the batches
    executed up to it, which is what ``warm_hit_rate()`` says at the end."""
    stats, snapshots = _fleet_snapshots(replicas=2, rate=600.0, duration=0.3, seed=2)
    warm = [b.warm for b in stats.batches]
    assert None not in warm and not all(warm)
    for values in snapshots:
        n = int(sum(v for k, v in values.items() if k.startswith("repro_serve_batches_total")))
        assert values["repro_fleet_warm_hit_rate"] == sum(warm[:n]) / n
    assert n == len(warm)
    assert values["repro_fleet_warm_hit_rate"] == stats.warm_hit_rate()


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
    stats = FleetServer(pool).run(requests)
    assert len(stats.completed) == 8
    assert {c.replica for c in stats.completed} == {0, 1}
    for c in stats.completed:
        x = next(r.x for r in requests if r.rid == c.rid)
        oracle, _ = reference_forward(spec, params, x[:, None, :])
        np.testing.assert_allclose(c.result, oracle[0], rtol=1e-5, atol=1e-6)


def test_one_replica_fleet_samples_a_snapshot_per_batch():
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


def test_default_fleet_is_one_replica():
    server = FleetServer.build(tiny_spec(), machine=laptop_sim(4))
    stats = server.run(workload(duration=0.2))
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
