"""Unit tests: RequestQueue backpressure and deadline expiry."""

import pytest

from repro.serve.config import ServeConfig
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest


def req(rid, arrival=0.0, deadline=None, seq_len=10):
    return InferenceRequest(rid=rid, seq_len=seq_len, arrival_time=arrival,
                            deadline=deadline)


def test_admits_until_capacity():
    q = RequestQueue(config=ServeConfig(queue_capacity=3))
    assert q.push(req(0)) == []
    assert q.push(req(1)) == []
    assert q.push(req(2)) == []
    assert len(q) == 3 and q.full


def test_reject_policy_sheds_arriving_request():
    q = RequestQueue(config=ServeConfig(queue_capacity=2, queue_policy="reject"))
    q.push(req(0))
    q.push(req(1))
    shed = q.push(req(2))
    assert [r.rid for r in shed] == [2]
    assert [r.rid for r in q] == [0, 1]  # queue untouched


def test_drop_oldest_policy_sheds_head():
    q = RequestQueue(config=ServeConfig(queue_capacity=2, queue_policy="drop_oldest"))
    q.push(req(0))
    q.push(req(1))
    shed = q.push(req(2))
    assert [r.rid for r in shed] == [0]
    assert [r.rid for r in q] == [1, 2]  # newest admitted


def test_expire_removes_only_overdue_requests():
    q = RequestQueue(config=ServeConfig(queue_capacity=8))
    q.push(req(0, arrival=0.0, deadline=1.0))
    q.push(req(1, arrival=0.0, deadline=5.0))
    q.push(req(2, arrival=0.0))  # no deadline: never expires
    assert q.expire(0.5) == []
    expired = q.expire(2.0)
    assert [r.rid for r in expired] == [0]
    assert [r.rid for r in q] == [1, 2]
    assert q.expire(100.0)[0].rid == 1
    assert [r.rid for r in q] == [2]


def test_deadline_is_exclusive_at_the_boundary():
    q = RequestQueue(config=ServeConfig(queue_capacity=2))
    q.push(req(0, deadline=1.0))
    assert q.expire(1.0) == []  # still servable exactly at the deadline


def test_next_deadline_and_oldest_arrival():
    q = RequestQueue(config=ServeConfig(queue_capacity=8))
    assert q.oldest_arrival() is None and q.next_deadline() is None
    q.push(req(0, arrival=0.3))
    q.push(req(1, arrival=0.7, deadline=2.0))
    q.push(req(2, arrival=0.9, deadline=1.5))
    assert q.oldest_arrival() == 0.3
    assert q.next_deadline() == 1.5


def test_take_removes_claimed_requests():
    q = RequestQueue(config=ServeConfig(queue_capacity=8))
    rs = [req(i) for i in range(4)]
    for r in rs:
        q.push(r)
    q.take([rs[1], rs[3]])
    assert [r.rid for r in q] == [0, 2]


def test_validation():
    with pytest.raises(ValueError):
        RequestQueue(config=ServeConfig(queue_capacity=0))
    with pytest.raises(ValueError):
        RequestQueue(config=ServeConfig(queue_policy="panic"))
    with pytest.raises(ValueError):
        InferenceRequest(rid=0, seq_len=0, arrival_time=0.0)
