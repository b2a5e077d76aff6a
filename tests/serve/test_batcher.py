"""Unit tests: DynamicBatcher flush triggers and length bucketing."""

import numpy as np
import pytest

from repro.serve.batcher import DynamicBatcher, SIZE_TRIGGER, TIMEOUT_TRIGGER, DRAIN_TRIGGER
from repro.serve.config import ServeConfig
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest


def fill(queue, specs):
    """specs: list of (rid, seq_len, arrival)."""
    for rid, seq_len, arrival in specs:
        queue.push(InferenceRequest(rid=rid, seq_len=seq_len, arrival_time=arrival))


def test_size_triggered_flush_fires_immediately():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(i, 10, 0.0) for i in range(4)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=4, max_wait=1.0, bucket_width=16))
    batch = b.next_batch(q, now=0.0)
    assert batch is not None and batch.trigger == SIZE_TRIGGER
    assert batch.size == 4 and len(q) == 0
    assert batch.padded_len == 16


def test_no_flush_before_timeout_or_size():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(0, 10, 0.0), (1, 12, 0.001)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=4, max_wait=0.010, bucket_width=16))
    assert b.next_batch(q, now=0.005) is None  # 5 ms < max_wait, 2 < 4
    assert len(q) == 2
    assert b.next_flush_time(q) == pytest.approx(0.010)


def test_timeout_triggered_partial_flush():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(0, 10, 0.0), (1, 12, 0.001)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=4, max_wait=0.010, bucket_width=16))
    batch = b.next_batch(q, now=0.010)  # oldest has waited exactly max_wait
    assert batch is not None and batch.trigger == TIMEOUT_TRIGGER
    assert batch.size == 2 and len(q) == 0


def test_batches_never_mix_length_buckets():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    # two buckets: lengths <=16 and 17..32
    fill(q, [(0, 5, 0.0), (1, 30, 0.0), (2, 8, 0.0), (3, 25, 0.0)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=4, max_wait=0.0, bucket_width=16))
    first = b.next_batch(q, now=0.0)
    second = b.next_batch(q, now=0.0)
    assert {r.rid for r in first.requests} == {0, 2}
    assert first.padded_len == 16
    assert {r.rid for r in second.requests} == {1, 3}
    assert second.padded_len == 32
    assert len(q) == 0


def test_fullest_bucket_flushes_first():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(0, 30, 0.0)] + [(i, 10, 0.001) for i in (1, 2)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=2, max_wait=1.0, bucket_width=16))
    batch = b.next_batch(q, now=0.002)
    assert batch.trigger == SIZE_TRIGGER
    assert {r.rid for r in batch.requests} == {1, 2}  # only full bucket cut
    assert [r.rid for r in q] == [0]


def test_size_trigger_takes_oldest_first_and_leaves_rest():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(i, 10, i * 0.001) for i in range(6)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=4, max_wait=1.0, bucket_width=16))
    batch = b.next_batch(q, now=0.01)
    assert [r.rid for r in batch.requests] == [0, 1, 2, 3]
    assert [r.rid for r in q] == [4, 5]


def test_drain_flushes_without_waiting():
    q = RequestQueue(config=ServeConfig(queue_capacity=16))
    fill(q, [(0, 10, 0.0)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=8, max_wait=10.0, bucket_width=16))
    assert b.next_batch(q, now=0.0) is None
    batch = b.next_batch(q, now=0.0, drain=True)
    assert batch is not None and batch.trigger == DRAIN_TRIGGER
    assert batch.size == 1


def test_padding_accounting_and_padded_input():
    reqs = [
        InferenceRequest(rid=0, seq_len=5, arrival_time=0.0,
                         x=np.ones((5, 3), dtype=np.float32)),
        InferenceRequest(rid=1, seq_len=7, arrival_time=0.0,
                         x=np.ones((7, 3), dtype=np.float32)),
    ]
    q = RequestQueue(config=ServeConfig(queue_capacity=4))
    for r in reqs:
        q.push(r)
    b = DynamicBatcher(config=ServeConfig(max_batch_size=2, max_wait=0.0, bucket_width=8))
    batch = b.next_batch(q, now=0.0)
    assert batch.padded_len == 8
    assert batch.useful_frames == 12 and batch.padded_frames == 16
    assert batch.padding_waste == pytest.approx(0.25)
    x = batch.padded_input()
    assert x.shape == (8, 2, 3)
    assert x[:5, 0].all() and not x[5:, 0].any()
    assert x[:7, 1].all() and not x[7:, 1].any()


def test_batch_ids_are_sequential():
    q = RequestQueue(config=ServeConfig(queue_capacity=8))
    fill(q, [(0, 5, 0.0), (1, 40, 0.0)])
    b = DynamicBatcher(config=ServeConfig(max_batch_size=1, max_wait=1.0, bucket_width=16))
    assert b.next_batch(q, now=0.0).batch_id == 0
    assert b.next_batch(q, now=0.0).batch_id == 1


def test_validation():
    with pytest.raises(ValueError):
        DynamicBatcher(config=ServeConfig(max_batch_size=0))
    with pytest.raises(ValueError):
        DynamicBatcher(config=ServeConfig(max_wait=-1.0))
    with pytest.raises(ValueError):
        DynamicBatcher(config=ServeConfig(bucket_width=0))
