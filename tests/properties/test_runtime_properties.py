"""Property-based tests of the tasking runtime (hypothesis).

Core invariants: any dependence graph built from random in/out annotations
is acyclic; every executor runs each task exactly once in a topological
order; schedulers never lose or duplicate tasks.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.scheduler import make_scheduler
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.task import RegionSpace, Task
from repro.simarch.presets import laptop_sim

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")


@st.composite
def random_graph(draw, max_tasks=25, max_regions=8):
    """A random OmpSs-style registration stream, with an execution log."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_regions = draw(st.integers(1, max_regions))
    rs = RegionSpace()
    regions = [rs.get(("r", i), 64) for i in range(n_regions)]
    g = TaskGraph()
    log = []
    lock = threading.Lock()
    for tid in range(n_tasks):
        ins = draw(st.lists(st.integers(0, n_regions - 1), max_size=3))
        outs = draw(st.lists(st.integers(0, n_regions - 1), max_size=2))
        inouts = draw(st.lists(st.integers(0, n_regions - 1), max_size=2))

        def payload(tid=tid):
            with lock:
                log.append(tid)

        g.add_task(
            f"t{tid}",
            payload,
            ins=[regions[i] for i in ins],
            outs=[regions[i] for i in outs],
            inouts=[regions[i] for i in inouts],
            flops=float(draw(st.integers(0, 10))) * 1e5,
            kind=draw(st.sampled_from(["cell", "merge", "task"])),
        )
    return g, log


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_random_graphs_acyclic(graph_and_log):
    g, _ = graph_and_log
    assert g.validate_acyclic()


@given(random_graph())
@settings(max_examples=25, deadline=None)
def test_serial_execution_is_topological(graph_and_log):
    g, log = graph_and_log
    SerialExecutor().run(g)
    assert g.is_topological_order(log)


@given(random_graph(), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_threaded_execution_topological_and_complete(graph_and_log, workers):
    g, log = graph_and_log
    ThreadedExecutor(workers).run(g)
    assert sorted(log) == list(range(len(g)))
    assert g.is_topological_order(log)


@given(random_graph(), st.sampled_from(["fifo", "lifo", "locality", "steal"]))
@settings(max_examples=20, deadline=None)
def test_simulated_execution_topological_and_complete(graph_and_log, policy):
    g, log = graph_and_log
    SimulatedExecutor(laptop_sim(4), scheduler=policy, execute_payloads=True).run(g)
    assert sorted(log) == list(range(len(g)))
    assert g.is_topological_order(log)


@given(random_graph())
@settings(max_examples=15, deadline=None)
def test_simulated_trace_consistent(graph_and_log):
    g, _ = graph_and_log
    trace = SimulatedExecutor(laptop_sim(4)).run(g)
    assert trace.num_tasks() == len(g)
    # task windows are positive and concurrency never exceeds core count
    for r in trace.records:
        assert r.end > r.start
    assert trace.peak_concurrency() <= 4


@given(random_graph())
@settings(max_examples=15, deadline=None)
def test_critical_path_bounds_makespan(graph_and_log):
    """task count >= makespan-in-task-counts >= critical path (unit weights)."""
    g, _ = graph_and_log
    assert 1 <= g.critical_path_length() <= len(g)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=40
    ),
    st.sampled_from(["fifo", "lifo", "locality", "steal"]),
)
@settings(max_examples=30, deadline=None)
def test_scheduler_never_loses_or_duplicates(pushes, policy):
    sched = make_scheduler(policy, 4)
    tasks = []
    for use_hint, hint in pushes:
        t = Task(f"t{len(tasks)}", None)
        tasks.append(t)
        sched.push(t, hint=hint if use_hint else None)
    popped = []
    core = 0
    while len(sched):
        t = sched.pop(core % 4)
        core += 1
        assert t is not None
        popped.append(t)
    assert len(popped) == len(tasks)
    assert {id(t) for t in popped} == {id(t) for t in tasks}


@given(random_graph())
@settings(max_examples=10, deadline=None)
def test_barrier_after_random_graph_gates(graph_and_log):
    g, _ = graph_and_log
    n_before = len(g)
    bar = g.barrier()
    after = g.add_task("after", None)
    assert g.validate_acyclic()
    # 'after' cannot run before the barrier
    assert g.indegree[after.tid] >= 1
    assert after.tid in g.successors[bar.tid]
