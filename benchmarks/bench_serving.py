"""Online serving: dynamic batching vs. no batching on the simulated machine.

The serving layer (``repro.serve``) replays a Poisson request stream
against the Table III BLSTM on the simulated 48-core Xeon.  Shape
criteria: at an arrival rate that saturates an unbatched server,

* dynamic batching (``max_batch_size 32``) sustains **>= 3x** the
  throughput of ``max_batch_size 1`` (it amortises per-batch fixed costs
  and task-creation overheads across requests, exactly the effect SHARP
  and BatchMaker exploit);
* the unbatched server saturates and sheds load (backpressure works);
* the batched server's p99 latency stays below the unbatched p50 —
  batching here is a latency *win* because it drains the queue faster.
"""

from benchmarks.common import full_grids, run_once
from repro.analysis.report import format_table
from repro.models.spec import BRNNSpec
from repro.config import ExecutionConfig
from repro.serve import (
    InferenceEngine,
    Server,
    ServeConfig,
    WorkloadConfig,
    poisson_workload,
)

ARRIVAL_RATE = 200.0
MBS = 4


def serving_spec() -> BRNNSpec:
    return BRNNSpec(cell="lstm", input_size=64, hidden_size=256, num_layers=6,
                    merge_mode="sum", num_classes=11)


def run_serving(max_batch_size: int, duration_s: float, rate_hz: float = ARRIVAL_RATE):
    """One serving run; returns the summary dict."""
    spec = serving_spec()
    requests = poisson_workload(
        WorkloadConfig(rate_hz=rate_hz, duration_s=duration_s,
                       seq_len_range=(40, 100)),
        seed=0,
    )
    engine = InferenceEngine(spec, config=ExecutionConfig(executor="sim", mbs=MBS))
    config = ServeConfig(queue_capacity=128, max_batch_size=max_batch_size,
                         max_wait=5e-3, bucket_width=20)
    return Server(engine, config).run(requests).summary()


def test_dynamic_batching_throughput(benchmark):
    duration = 5.0 if full_grids() else 2.0

    def run():
        return {bs: run_serving(bs, duration) for bs in (1, 32)}

    results = run_once(benchmark, run)
    unbatched, batched = results[1], results[32]

    print()
    print(format_table(
        ["max_batch", "thr rps", "completed", "shed", "p50 ms", "p99 ms",
         "mean batch", "padding"],
        [[bs, round(s["throughput_rps"], 1), s["requests"]["completed"],
          s["requests"]["shed"], round(s["latency_s"]["p50"] * 1e3, 1),
          round(s["latency_s"]["p99"] * 1e3, 1),
          round(s["batches"]["mean_size"], 1),
          round(s["batches"]["padding_overhead"], 3)]
         for bs, s in sorted(results.items())],
        title=f"Serving @ {ARRIVAL_RATE:.0f} req/s Poisson, sim 48-core Xeon",
    ))

    # dynamic batching >= 3x unbatched throughput (acceptance criterion)
    assert batched["throughput_rps"] >= 3.0 * unbatched["throughput_rps"]
    # the unbatched server saturates: backpressure sheds a sizeable fraction
    assert unbatched["requests"]["shed"] > 0.2 * unbatched["requests"]["total"]
    # the batched server keeps up: nearly everything completes
    assert batched["requests"]["completed"] > 0.95 * batched["requests"]["total"]
    # batching drains the queue faster => even tail latency beats unbatched p50
    assert batched["latency_s"]["p99"] < unbatched["latency_s"]["p50"]
    # length bucketing keeps padding waste bounded
    assert batched["batches"]["padding_overhead"] < 0.25
    benchmark.extra_info["throughput_speedup"] = (
        batched["throughput_rps"] / unbatched["throughput_rps"]
    )


def test_bursty_traffic_backpressure(benchmark):
    """Bursty arrivals: the queue absorbs bursts, sheds only under overload."""
    from repro.serve import bursty_workload

    spec = serving_spec()
    requests = bursty_workload(
        WorkloadConfig(rate_hz=120.0, duration_s=2.0, seq_len_range=(40, 100),
                       burst_factor=4.0, burst_fraction=0.2),
        seed=1,
    )

    def run():
        engine = InferenceEngine(spec, config=ExecutionConfig(executor="sim", mbs=MBS))
        config = ServeConfig(queue_capacity=64, max_batch_size=32,
                             max_wait=5e-3, bucket_width=20)
        return Server(engine, config).run(requests).summary()

    s = run_once(benchmark, run)
    print()
    print(f"bursty: {s['requests']['completed']}/{s['requests']['total']} completed, "
          f"shed {s['requests']['shed']}, p99 {s['latency_s']['p99'] * 1e3:.0f} ms, "
          f"peak queue {s['queue_depth']['max']:.0f}")
    # every request is accounted for exactly once
    assert s["requests"]["total"] == len(requests)
    # the bounded queue never exceeded its capacity
    assert s["queue_depth"]["max"] <= 64
    # the server survives bursts: most requests complete
    assert s["requests"]["completed"] > 0.8 * s["requests"]["total"]
    benchmark.extra_info["p99_ms"] = s["latency_s"]["p99"] * 1e3
