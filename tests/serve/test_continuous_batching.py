"""Continuous batching: work conservation, triggers, flush equivalence."""

import numpy as np

from repro.config import ExecutionConfig
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.serve import (
    DynamicBatcher,
    FleetServer,
    InferenceRequest,
    RequestQueue,
    ServeConfig,
)
from repro.serve.batcher import CONTINUOUS_TRIGGER
from tests.conftest import laptop_sim


def _queue(requests, cfg):
    q = RequestQueue(config=cfg)
    for r in requests:
        q.push(r)
    return q


def test_continuous_mode_has_no_timers():
    cfg = ServeConfig(batcher="continuous", max_wait=5e-3)
    batcher = DynamicBatcher(config=cfg)
    q = _queue([InferenceRequest(rid=0, seq_len=4, arrival_time=0.0)], cfg)
    assert batcher.next_flush_time(q) is None  # dispatch is idleness-driven


def test_continuous_cuts_immediately_when_engine_idle():
    cfg = ServeConfig(batcher="continuous", max_batch_size=4, bucket_width=4,
                      max_wait=10.0)
    batcher = DynamicBatcher(config=cfg)
    q = _queue([InferenceRequest(rid=0, seq_len=4, arrival_time=0.0)], cfg)
    batch = batcher.next_batch(q, now=0.0)  # flush mode would hold for 10 s
    assert batch is not None and batch.trigger == CONTINUOUS_TRIGGER
    assert batch.size == 1 and len(q) == 0


def test_continuous_prefers_the_fullest_bucket():
    cfg = ServeConfig(batcher="continuous", max_batch_size=8, bucket_width=4)
    batcher = DynamicBatcher(config=cfg)
    reqs = [InferenceRequest(rid=i, seq_len=4, arrival_time=0.1) for i in range(3)]
    reqs.append(InferenceRequest(rid=9, seq_len=8, arrival_time=0.0))
    q = _queue(reqs, cfg)
    batch = batcher.next_batch(q, now=0.2)
    assert batch.padded_len == 4 and batch.size == 3  # 3 beats the older 1


def test_size_trigger_still_outranks_continuous():
    cfg = ServeConfig(batcher="continuous", max_batch_size=2, bucket_width=4)
    batcher = DynamicBatcher(config=cfg)
    reqs = [InferenceRequest(rid=i, seq_len=4, arrival_time=0.0) for i in range(2)]
    q = _queue(reqs, cfg)
    assert batcher.next_batch(q, now=0.0).trigger == "size"


def test_continuous_is_work_conserving_under_load():
    """A backlog drains with no idle gaps: every batch starts the moment
    the previous one finishes."""
    spec = BRNNSpec(input_size=6, hidden_size=5, num_layers=1, num_classes=3)
    cfg = ServeConfig(batcher="continuous", max_batch_size=4, bucket_width=8,
                      queue_capacity=64)
    requests = [
        InferenceRequest(rid=i, seq_len=4 + (i % 5), arrival_time=0.0)
        for i in range(24)
    ]
    server = FleetServer.build(
        spec, cfg, execution=ExecutionConfig(executor="sim"), machine=laptop_sim(4)
    )
    stats = server.run(requests)
    assert len(stats.completed) == 24
    starts = sorted(b.service_start for b in stats.batches)
    ends = sorted(b.service_start + b.service_time for b in stats.batches)
    for nxt, prev_end in zip(starts[1:], ends[:-1]):
        assert abs(nxt - prev_end) < 1e-12  # back-to-back, never idle


def test_continuous_and_flush_results_are_bitwise_identical():
    """Batch composition differs between the modes, but each request's
    logits must not: with per-request chunks (``mbs >= batch``) the
    functional substrate computes every sequence in isolation."""
    spec = BRNNSpec(cell="gru", input_size=5, hidden_size=6, num_layers=1,
                    merge_mode="sum", head="many_to_one", num_classes=4)
    params = BRNNParams.initialize(spec, seed=3)
    rng = np.random.default_rng(11)
    base = []
    for rid in range(12):
        seq_len = 4 + (rid % 3) * 2
        base.append((rid, seq_len, 0.02 * rid,
                     rng.standard_normal((seq_len, spec.input_size))
                        .astype(np.float32)))

    def serve(mode):
        requests = [
            InferenceRequest(rid=rid, seq_len=s, arrival_time=t, x=x.copy())
            for rid, s, t, x in base
        ]
        cfg = ServeConfig(batcher=mode, max_batch_size=4, bucket_width=2,
                          max_wait=0.05, queue_capacity=32)
        server = FleetServer.build(
            spec, cfg,
            execution=ExecutionConfig(executor="threaded", n_workers=2, mbs=4),
            params=params,
        )
        return server.run(requests)

    flush, continuous = serve("flush"), serve("continuous")
    assert len(flush.completed) == len(continuous.completed) == 12
    # the modes really batched differently (else this test shows nothing)
    assert sorted(b.size for b in flush.batches) != \
        sorted(b.size for b in continuous.batches) or \
        len(flush.batches) != len(continuous.batches)
    a = {c.rid: c.result for c in flush.completed}
    b = {c.rid: c.result for c in continuous.completed}
    for rid in a:
        np.testing.assert_array_equal(a[rid], b[rid])  # bitwise, not approx
