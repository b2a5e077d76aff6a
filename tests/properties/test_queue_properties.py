"""Model test of RequestQueue (hypothesis): a plain list is the reference.

The queue keeps its requests in a push-order dict and a lazy deadline
heap; every operation, interleaved at random, must answer exactly as a
list scanned in push order would.
"""

from hypothesis import given, settings, strategies as st

from repro.serve.config import ServeConfig
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest

#: few distinct values, so equal deadlines and equal arrivals are common
TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 4.0)
PUSH = st.tuples(st.just("push"), TIMES, st.none() | TIMES)

OPS = st.one_of(
    # arrivals and deadlines are both independent of push order; pushes
    # are drawn three times as often, so that queues fill up
    PUSH,
    PUSH,
    PUSH,
    # ``now`` is drawn afresh each time, so it also goes backwards
    st.tuples(st.just("expire"), TIMES, st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)),
    # positions in the queue of the requests a batcher claims
    st.tuples(st.just("take"), st.sets(st.integers(0, 7), max_size=2)),
    st.tuples(st.just("next_deadline")),
    st.tuples(st.just("oldest_arrival")),
    st.tuples(st.just("iter")),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), ops=st.lists(OPS, min_size=10, max_size=60))
def test_queue_answers_as_a_list_scanned_in_push_order(capacity, ops):
    queue = RequestQueue(config=ServeConfig(queue_capacity=capacity))
    model = []
    for rid, op in enumerate(ops):
        kind = op[0]
        if kind == "push":
            req = InferenceRequest(rid=rid, seq_len=1, arrival_time=op[1], deadline=op[2])
            admitted = len(model) < capacity
            if admitted:
                model.append(req)
            assert queue.push(req) is admitted
        elif kind == "expire":
            cut = op[1] + op[2]
            due = [r for r in model if r.deadline is not None and cut > r.deadline]
            model = [r for r in model if not (r.deadline is not None and cut > r.deadline)]
            assert queue.expire(op[1], horizon=op[2]) == due
        elif kind == "take":
            claimed = [r for k, r in enumerate(model) if k in op[1]]
            model = [r for k, r in enumerate(model) if k not in op[1]]
            queue.take(claimed)
        elif kind == "next_deadline":
            deadlines = [r.deadline for r in model if r.deadline is not None]
            assert queue.next_deadline() == (min(deadlines) if deadlines else None)
        elif kind == "oldest_arrival":
            assert queue.oldest_arrival() == (model[0].arrival_time if model else None)
        else:
            assert list(queue) == model
        assert len(queue) == len(model)
        assert queue.full is (len(model) >= capacity)
    # identity, not only equality: the queue hands back the objects it was given
    assert all(a is b for a, b in zip(queue, model))
