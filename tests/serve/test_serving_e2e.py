"""End-to-end serving tests: deterministic simulation + functional threaded path."""

import numpy as np
import pytest

from repro.models.params import BRNNParams
from repro.models.reference import reference_forward
from repro.models.spec import BRNNSpec
from repro.serve.engine import SERVE_DEFAULTS
from repro.serve import (
    SHED_DEADLINE,
    InferenceEngine,
    InferenceRequest,
    Server,
    ServeConfig,
    WorkloadConfig,
    bursty_workload,
    poisson_workload,
    serve_workload,
)
from repro.simarch.presets import laptop_sim


def tiny_spec():
    return BRNNSpec(cell="lstm", input_size=6, hidden_size=5, num_layers=2,
                    merge_mode="sum", head="many_to_one", num_classes=4)


def sim_engine(**kw):
    return InferenceEngine(tiny_spec(), config=SERVE_DEFAULTS.replace(**kw),
                           machine=laptop_sim(4))


def small_workload(seed=0, rate=400.0, duration=0.2):
    return poisson_workload(
        WorkloadConfig(rate_hz=rate, duration_s=duration, seq_len_range=(4, 12)),
        seed=seed,
    )


def test_simulated_serving_is_deterministic():
    config = ServeConfig(queue_capacity=32, max_batch_size=4, max_wait=2e-3,
                         bucket_width=4)
    summaries = []
    for _ in range(2):
        stats = Server(sim_engine(), config).run(small_workload())
        summaries.append(stats.summary())
    assert summaries[0] == summaries[1]  # bit-identical, incl. every percentile


def test_every_request_reaches_exactly_one_terminal_state():
    requests = small_workload(seed=3, rate=800.0, duration=0.25)
    stats = serve_workload(
        sim_engine(),
        requests,
        ServeConfig(queue_capacity=8, max_batch_size=4, max_wait=1e-3,
                    bucket_width=4),
    )
    r = stats.summary()["requests"]
    assert r["total"] == len(requests)
    assert r["completed"] + r["shed"] == r["total"]
    assert sum(r["shed_reasons"].values()) == r["shed"]
    completed_rids = {c.rid for c in stats.completed}
    shed_rids = {s.rid for s in stats.shed}
    assert not completed_rids & shed_rids  # no request in two states


def test_latency_percentiles_are_ordered_and_causal():
    stats = serve_workload(
        sim_engine(), small_workload(),
        ServeConfig(queue_capacity=64, max_batch_size=4, max_wait=2e-3,
                    bucket_width=4),
    )
    lat = stats.summary()["latency_s"]
    assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    for c in stats.completed:
        assert c.finish_time > c.arrival_time  # no time travel
        assert c.queue_wait >= 0


def test_deadline_expiry_drops_overdue_requests():
    # one slow bucket ahead of a request whose deadline passes while queued
    requests = [
        InferenceRequest(rid=0, seq_len=8, arrival_time=0.0),
        InferenceRequest(rid=1, seq_len=8, arrival_time=0.0, deadline=1e-4),
    ]
    stats = serve_workload(
        sim_engine(),
        requests,
        ServeConfig(queue_capacity=4, max_batch_size=1, max_wait=0.0,
                    bucket_width=4),
    )
    # rid 0 is served first (batch of 1); rid 1's deadline passes while it
    # runs — a deadline shed, not a batcher timeout (docs/SERVING.md)
    assert [c.rid for c in stats.completed] == [0]
    assert [(r.rid, why) for r, why in stats.shed_records] == [(1, SHED_DEADLINE)]
    assert stats.shed_reason_counts() == {SHED_DEADLINE: 1}


def test_backpressure_sheds_when_queue_full():
    # 20 simultaneous arrivals into a capacity-4 queue, served one by one
    requests = [InferenceRequest(rid=i, seq_len=8, arrival_time=0.0)
                for i in range(20)]
    stats = serve_workload(
        sim_engine(),
        requests,
        ServeConfig(queue_capacity=4, max_batch_size=1, max_wait=10.0),
    )
    s = stats.summary()
    assert s["requests"]["shed"] == 16
    assert s["requests"]["completed"] == 4
    assert s["queue_depth"]["max"] <= 4


def test_dynamic_batching_beats_unbatched_on_simulated_machine():
    requests = small_workload(seed=1, rate=600.0, duration=0.3)
    thr = {}
    for bs in (1, 8):
        stats = serve_workload(
            sim_engine(mbs=2),
            requests,
            ServeConfig(queue_capacity=32, max_batch_size=bs, max_wait=2e-3,
                        bucket_width=4),
        )
        thr[bs] = stats.summary()["throughput_rps"]
    assert thr[8] > 1.5 * thr[1]


def test_bursty_workload_is_deterministic_and_in_window():
    cfg = WorkloadConfig(rate_hz=300.0, duration_s=0.5, seq_len_range=(4, 12),
                         burst_factor=4.0, burst_fraction=0.2, phase_s=0.05)
    a = bursty_workload(cfg, seed=7)
    b = bursty_workload(cfg, seed=7)
    assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
    assert [r.seq_len for r in a] == [r.seq_len for r in b]
    assert all(0.0 <= r.arrival_time < 0.5 for r in a)
    assert len(a) > 0


def test_combined_trace_spans_the_serving_run():
    stats = serve_workload(
        sim_engine(), small_workload(),
        ServeConfig(queue_capacity=64, max_batch_size=4, max_wait=2e-3,
                    bucket_width=4),
        keep_traces=True,
    )
    trace = stats.combined_trace()
    assert trace.num_tasks() > 0
    # merged trace is laid out on the server clock: it reaches the last finish
    last_finish = max(c.finish_time for c in stats.completed)
    assert max(r.end for r in trace.records) <= last_finish + 1e-9
    # and the summary helper works on it
    assert trace.summary()["task_duration_p95_s"] >= trace.summary()["task_duration_p50_s"]


def test_threaded_serving_matches_reference_oracle():
    """Functional serving returns per-request logits equal to the oracle's."""
    spec = tiny_spec()
    params = BRNNParams.initialize(spec, seed=11)
    rng = np.random.default_rng(5)
    requests = []
    for rid, seq_len in enumerate((6, 6, 6, 6)):  # one bucket, no padding
        x = rng.standard_normal((seq_len, spec.input_size)).astype(np.float32)
        requests.append(InferenceRequest(rid=rid, seq_len=seq_len,
                                         arrival_time=0.0, x=x))
    engine = InferenceEngine(
        spec, params=params,
        config=SERVE_DEFAULTS.replace(executor="threaded", n_workers=2),
    )
    stats = serve_workload(
        engine, requests,
        ServeConfig(queue_capacity=8, max_batch_size=4, max_wait=0.0,
                    bucket_width=6),
    )
    assert len(stats.completed) == 4
    by_rid = {c.rid: c for c in stats.completed}
    assert all(by_rid[r.rid].batch_size == 4 for r in requests)
    for r in requests:
        oracle, _ = reference_forward(spec, params, r.x[:, None, :])
        np.testing.assert_allclose(by_rid[r.rid].result, oracle[0], rtol=1e-5,
                                   atol=1e-6)


def test_engine_validation():
    with pytest.raises(ValueError):
        InferenceEngine(tiny_spec(), config=SERVE_DEFAULTS.replace(executor="gpu"))
    with pytest.raises(ValueError):
        InferenceEngine(tiny_spec(), config=SERVE_DEFAULTS.replace(mbs=0))
