"""Unit tests for the serial and threaded executors."""

import threading

import pytest

from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import (
    HINT_MIN_SHARED_FRACTION,
    SerialExecutor,
    ThreadedExecutor,
    locality_hint,
)
from repro.runtime.scheduler import FIFOScheduler
from repro.runtime.task import Region, RegionSpace, Task

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")


def chain_graph(n, out):
    """n tasks appending their index, serialised by one inout region."""
    g = TaskGraph()
    rs = RegionSpace()
    token = rs.get("token", 8)
    for i in range(n):
        g.add_task(f"t{i}", (lambda i=i: out.append(i)), inouts=[token])
    return g


def test_serial_executor_runs_in_order():
    out = []
    trace = SerialExecutor().run(chain_graph(5, out))
    assert out == list(range(5))
    assert trace.num_tasks() == 5
    assert trace.n_cores == 1


def test_threaded_executor_respects_chain_order():
    out = []
    ThreadedExecutor(4).run(chain_graph(20, out))
    assert out == list(range(20))


def test_threaded_executor_runs_everything_once():
    g = TaskGraph()
    rs = RegionSpace()
    counts = {}
    lock = threading.Lock()

    def bump(name):
        with lock:
            counts[name] = counts.get(name, 0) + 1

    for i in range(50):
        g.add_task(f"t{i}", (lambda i=i: bump(i)), outs=[rs.get(("r", i), 8)])
    trace = ThreadedExecutor(8).run(g)
    assert counts == {i: 1 for i in range(50)}
    assert trace.num_tasks() == 50


def test_threaded_executor_dependencies_enforced():
    g = TaskGraph()
    rs = RegionSpace()
    a = rs.get("a", 8)
    state = {}

    def writer():
        state["value"] = 42

    def reader():
        state["seen"] = state.get("value")

    g.add_task("w", writer, outs=[a])
    g.add_task("r", reader, ins=[a])
    ThreadedExecutor(4).run(g)
    assert state["seen"] == 42


def test_threaded_executor_propagates_payload_error():
    g = TaskGraph()
    rs = RegionSpace()

    def boom():
        raise RuntimeError("payload failure")

    g.add_task("bad", boom, outs=[rs.get("a", 8)])
    g.add_task("after", None, ins=[rs.get("a", 8)])
    with pytest.raises(RuntimeError, match="payload failure"):
        ThreadedExecutor(2).run(g)


def test_threaded_executor_empty_graph():
    trace = ThreadedExecutor(2).run(TaskGraph())
    assert trace.num_tasks() == 0


def test_threaded_executor_rejects_zero_workers():
    with pytest.raises(ValueError):
        ThreadedExecutor(0)


def test_threaded_executor_custom_scheduler():
    out = []
    trace = ThreadedExecutor(2, scheduler_factory=FIFOScheduler).run(chain_graph(5, out))
    assert out == list(range(5))
    assert trace.scheduler == "fifo"


def test_trace_records_have_valid_cores_and_times():
    out = []
    trace = ThreadedExecutor(3).run(chain_graph(10, out))
    for r in trace.records:
        assert 0 <= r.core < 3
        assert r.end >= r.start >= 0


def test_locality_hint_requires_substantial_overlap():
    big = Region("w", 1000)
    small = Region("h", 10)
    other = Region("o", 1000)
    pred = Task("pred", None, outs=[small], ins=[big])
    succ_big_share = Task("s1", None, ins=[big, small])
    succ_small_share = Task("s2", None, ins=[small, other])
    assert locality_hint(pred, succ_big_share, 3) == 3
    # shares only 10 bytes of a 1010-byte working set -> no hint
    assert locality_hint(pred, succ_small_share, 3) is None


def test_locality_hint_none_without_overlap():
    t1 = Task("a", None, outs=[Region("x", 10)])
    t2 = Task("b", None, ins=[Region("y", 10)])
    assert locality_hint(t1, t2, 0) is None


def test_locality_hint_small_connector_keeps_chain():
    """A small task fully contained in the successor's inputs pins it."""
    conn = Region("logits", 8)
    pred = Task("loss", None, outs=[conn])
    succ = Task("head_bwd", None, ins=[conn, Region("W", 1000)])
    # shared = 8 bytes = 100% of the *predecessor's* working set
    assert locality_hint(pred, succ, 1) == 1


def test_more_workers_than_cores_short_switch_interval_loses_no_update():
    """Eight workers trading the GIL every 10 us over a 240-task lattice: the
    completion section (indegree count-down, pushes, wake-ups) and the hint
    placed before it must run every task exactly once, after its predecessors."""
    import sys

    g = TaskGraph()
    rs = RegionSpace()
    order = []
    width, depth = 6, 40
    for layer in range(depth):
        for col in range(width):
            ins = [] if layer == 0 else [
                rs.get((layer - 1, c % width), 64) for c in (col, col + 1)
            ]
            g.add_task(f"n{layer}.{col}", (lambda t=len(g): order.append(t)),
                       ins=ins, outs=[rs.get((layer, col), 64)])
    outcome = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=lambda: outcome.append(ThreadedExecutor(8).run(g)), daemon=True
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and outcome, "executor did not finish"
    assert outcome[0].n_cores == 8
    assert sorted(order) == list(range(width * depth))
    position = {tid: i for i, tid in enumerate(order)}
    for a, succs in enumerate(g.successors):
        assert all(position[a] < position[b] for b in succs)
