"""Fleet soak benchmark: replica scaling, admission shedding, warm plans.

Everything runs on the deterministic simulated machine with
``compile="on"``, so the recorded ``BENCH_fleet.json`` is bit-stable and
the claims are about the serving *system* (routing, admission, batching,
plan cache), not host noise.  Sections:

* **calibration** — measured full-batch service time at the largest
  length bucket sets the offered rates: a single replica is driven at
  ``utilization ×`` its batch capacity, the fleet at ``rate_ratio ×``
  the single-replica rate (the ≥3× scaling claim).
* **single_at_single_rate** — one replica at its comfortable rate: the
  SLO baseline (p99 attainment ≥ 0.99).
* **single_at_fleet_rate** — the same single replica at the fleet rate:
  demonstrably beyond one engine (attainment collapses), so the fleet
  section is measuring real scaling, not slack.
* **fleet_at_fleet_rate** — ``replicas`` engines behind the least-loaded
  router, continuous batching, admission on: sustains the fleet rate at
  attainment ≥ 0.99.
* **bursty_overload** — on/off bursts at the fleet's mean rate: excess
  load is *shed at admission* (token buckets + deadline budgets + doomed
  -request expiry), not queued and finished late — completed requests
  still attain their SLO.
* **routers** — hash-by-shape vs least-loaded on the same workload: the
  consistent-hash router keeps each shape's compiled plan warm on its
  home replica, so the fleet compiles each shape once, not ``replicas``
  times (fewer total compiles, higher warm hit rate).
* **replica_sweep** — two and four replicas, each at 0.8 × its pool's
  capacity: attainment holds and every replica serves.
* **batching** — one engine at a rate that saturates an unbatched server
  (:func:`batching_section`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import ExecutionConfig
from repro.harness.measure import make_spec
from repro.models.spec import BRNNSpec
from repro.serve.batcher import Batch
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine
from repro.serve.fleet import FleetServer, FleetStats
from repro.serve.loadgen import WorkloadConfig, make_workload
from repro.serve.request import InferenceRequest
from repro.serve.server import Server


def _calibrate_service_s(
    spec: BRNNSpec, execution: ExecutionConfig, padded_len: int, batch: int
) -> float:
    """Measured service time of one full batch at the largest bucket."""
    engine = InferenceEngine(spec, config=execution)
    requests = [
        InferenceRequest(rid=i, seq_len=padded_len, arrival_time=0.0)
        for i in range(batch)
    ]
    probe = Batch(
        batch_id=0, requests=requests, padded_len=padded_len,
        trigger="size", cut_time=0.0,
    )
    return engine.execute(probe).service_time_s


def _section(stats: FleetStats) -> Dict:
    """The per-run slice of ``summary()`` the ledger checks."""
    s = stats.summary()
    slo = s.get("slo") or {}
    out = {
        "requests": s["requests"]["total"],
        "completed": s["requests"]["completed"],
        "shed": s["requests"]["shed"],
        "shed_reasons": s["requests"]["shed_reasons"],
        "throughput_rps": s["throughput_rps"],
        "latency_p99_s": s["latency_s"]["p99"] if s["requests"]["completed"] else None,
        "attainment": slo.get("attainment"),
        "completed_attainment": slo.get("completed_attainment"),
        "late_completions": slo.get("late_completions"),
        "routing": s["fleet"]["routing"],
        "warmup_compiled": s["fleet"]["warmup_compiled"],
        "warm_hit_rate": stats.warm_hit_rate(),
    }
    return out


def batching_section() -> Dict:
    """The Table III BLSTM on one simulated 48-core engine at 200 req/s:
    batching amortises per-batch fixed costs and task creation across
    requests, so it multiplies throughput and drains the queue fast enough
    that its tail beats the unbatched median; a bounded queue absorbs bursts."""
    spec = make_spec("lstm", 64, 256, 6)
    rate_hz = 200.0

    def serve(workload: str, rate: float, max_batch_size: int, capacity: int, **bursts):
        requests = make_workload(
            workload,
            WorkloadConfig(rate_hz=rate, duration_s=2.0, seq_len_range=(40, 100), **bursts),
            seed=0 if workload == "poisson" else 1,
        )
        engine = InferenceEngine(spec, config=ExecutionConfig(executor="sim", mbs=4))
        cfg = ServeConfig(queue_capacity=capacity, max_batch_size=max_batch_size,
                          max_wait=5e-3, bucket_width=20)
        s = Server(engine, cfg).run(requests).summary()
        return {
            "offered": len(requests),
            "requests": s["requests"]["total"],
            "completed": s["requests"]["completed"],
            "shed": s["requests"]["shed"],
            "throughput_rps": s["throughput_rps"],
            "latency_p50_s": s["latency_s"]["p50"],
            "latency_p99_s": s["latency_s"]["p99"],
            "padding_overhead": s["batches"]["padding_overhead"],
            "queue_depth_max": s["queue_depth"]["max"],
        }

    return {
        "unbatched": serve("poisson", rate_hz, 1, 128),
        "batched": serve("poisson", rate_hz, 32, 128),
        "bursty": serve("bursty", 0.6 * rate_hz, 32, 64, burst_factor=4.0, burst_fraction=0.2),
    }


def run_fleet_bench(
    cell: str = "lstm",
    input_size: int = 32,
    hidden: int = 96,
    layers: int = 2,
    seq_range: Tuple[int, int] = (20, 60),
    bucket_width: int = 20,
    max_batch_size: int = 8,
    replicas: int = 4,
    duration_s: float = 3.0,
    utilization: float = 0.7,
    rate_ratio: float = 3.2,
    slo_factor: float = 12.0,
    tenants: int = 2,
    seed: int = 0,
) -> Dict:
    """Run every section and return ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers)
    execution = ExecutionConfig(executor="sim", compile="on")
    top_bucket = -(-seq_range[1] // bucket_width) * bucket_width
    service_full_s = _calibrate_service_s(
        spec, execution, top_bucket, max_batch_size
    )
    capacity_rps = max_batch_size / service_full_s
    single_rate_hz = utilization * capacity_rps
    fleet_rate_hz = rate_ratio * single_rate_hz
    slo_s = slo_factor * service_full_s

    def serve(
        rate_hz: float,
        n_replicas: int,
        router: str = "least_loaded",
        workload: str = "poisson",
        tenant_rate_hz: Optional[float] = None,
    ) -> Tuple[FleetServer, FleetStats]:
        cfg = ServeConfig(
            replicas=n_replicas,
            router=router,
            batcher="continuous",
            tenant_rate_hz=tenant_rate_hz,
            deadline_slo_s=slo_s,
            queue_capacity=256,
            max_batch_size=max_batch_size,
            bucket_width=bucket_width,
        )
        wl = WorkloadConfig(
            rate_hz=rate_hz, duration_s=duration_s,
            seq_len_range=seq_range, slo_s=None, tenants=tenants,
        )
        requests = make_workload(workload, wl, seed=seed)
        server = FleetServer.build(spec, cfg, execution=execution)
        return server, server.run(requests)

    def compiles(server: FleetServer) -> int:
        return sum(e.plan_cache.compiles for e in server.pool.engines)

    def sweep_point(n_replicas: int) -> Dict:
        point = _section(serve(0.8 * n_replicas * single_rate_hz, n_replicas)[1])
        return {"attainment": point["attainment"],
                "replicas_used": len(point["routing"])}

    _, single_ok = serve(single_rate_hz, 1)
    _, single_hot = serve(fleet_rate_hz, 1)
    fleet_server, fleet = serve(fleet_rate_hz, replicas)
    _, bursty = serve(
        fleet_rate_hz, replicas, workload="bursty",
        tenant_rate_hz=fleet_rate_hz / tenants,
    )
    hash_server, hash_run = serve(single_rate_hz, replicas, router="hash")
    ll_server, ll_run = serve(single_rate_hz, replicas, router="least_loaded")

    config = {
        "model": spec.describe(),
        "executor": execution.executor,
        "compile": execution.compile,
        "seq_len_range": list(seq_range),
        "bucket_width": bucket_width,
        "max_batch_size": max_batch_size,
        "replicas": replicas,
        "duration_s": duration_s,
        "utilization": utilization,
        "rate_ratio": rate_ratio,
        "slo_factor": slo_factor,
        "tenants": tenants,
        "seed": seed,
    }
    results = {
        "calibration": {
            "service_full_s": service_full_s,
            "capacity_rps": capacity_rps,
            "single_rate_hz": single_rate_hz,
            "fleet_rate_hz": fleet_rate_hz,
            "slo_s": slo_s,
            "rate_ratio": rate_ratio,
        },
        "single_at_single_rate": _section(single_ok),
        "single_at_fleet_rate": _section(single_hot),
        "fleet_at_fleet_rate": _section(fleet),
        "bursty_overload": _section(bursty),
        "replica_sweep": {f"r{n}": sweep_point(n) for n in (2, 4)},
        "batching": batching_section(),
        "routers": {
            "hash": {
                "compiles": compiles(hash_server),
                "warm_hit_rate": hash_run.warm_hit_rate(),
                "warmup_compiled": hash_run.warmup_compiled,
            },
            "least_loaded": {
                "compiles": compiles(ll_server),
                "warm_hit_rate": ll_run.warm_hit_rate(),
                "warmup_compiled": ll_run.warmup_compiled,
            },
        },
    }
    return {"config": config, "results": results}
