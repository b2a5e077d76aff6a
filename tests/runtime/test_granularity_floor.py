"""The threaded executor's granularity floor (docs/EXECUTORS.md).

``useful_workers`` decides from the graph's annotated GEMM flops whether
``n_workers`` threads are worth starting; when they are not, the graph runs
on the calling thread through the same scheduler, hooks, trace and error
contract.  Everything here is deterministic and clock-free: the shapes are
the benchmark's two engine workloads (``bench/workloads.py``), shortened.
"""

import threading

import numpy as np
import pytest

from repro.compile import compile_graph
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.obs import CallbackHooks, MetricsRegistry
from repro.runtime import executor as executor_module
from repro.runtime.depgraph import TaskGraph
from repro.runtime.executor import (
    SerialExecutor,
    ThreadedExecutor,
    gemm_flops_per_task,
    useful_workers,
)
from repro.runtime.scheduler import FuzzScheduler, RecordingScheduler, ReplayScheduler
from repro.runtime.task import RegionSpace

#: ``infer_fine``: ~0.05 MFLOP of GEMM per task
FINE = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4,
                head="many_to_one", num_classes=11)
#: ``train_gemm``: ~34 MFLOP of GEMM per task
GEMM = BRNNSpec(cell="lstm", input_size=128, hidden_size=256, num_layers=3,
                head="many_to_one", num_classes=11)


def fine_build(seq_len=12):
    x = np.random.default_rng(0).standard_normal((seq_len, 4, 39)).astype(np.float32)
    return build_brnn_graph(
        FINE, x=x, params=BRNNParams.initialize(FINE, 0), training=False, mbs=1
    )


def record_threads(build):
    """Wrap every payload to note the thread it runs on; returns the set."""
    seen = set()
    for task in build.graph.tasks:
        def payload(fn=task.fn):
            seen.add(threading.get_ident())
            fn()
        task.fn = payload
    return seen


def one_task_graph(flops, kind="cell", n_free=0):
    g = TaskGraph()
    rs = RegionSpace()
    g.add_task("gemm", None, outs=[rs.get("a", 8)], flops=flops, kind=kind)
    for i in range(n_free):
        g.add_task(f"free{i}", None, outs=[rs.get(("f", i), 8)], kind="merge")
    return g


# -- the rule -----------------------------------------------------------------


def test_fine_graph_gets_one_thread_and_gemm_graph_gets_them_all():
    fine = fine_build(seq_len=100).graph
    assert len(fine) == 1102 and 4e4 < gemm_flops_per_task(fine) < 6e4
    assert useful_workers(fine, 2) == 1
    train = build_brnn_graph(GEMM, seq_len=32, batch=64, mbs=2, training=True)
    assert 3e7 < gemm_flops_per_task(train.graph) < 4e7
    assert useful_workers(train.graph, 2) == 2
    assert useful_workers(train.graph, 1) == 1


def test_boundary_sits_at_the_constant():
    floor = executor_module.MIN_GEMM_FLOPS_PER_TASK
    assert useful_workers(one_task_graph(floor), 4) == 4
    assert useful_workers(one_task_graph(floor * (1 - 1e-9)), 4) == 1
    # the floor is on the mean over all tasks, and only GEMM kinds count
    assert useful_workers(one_task_graph(2 * floor, n_free=1), 4) == 4
    assert useful_workers(one_task_graph(2 * floor, n_free=2), 4) == 1
    assert useful_workers(one_task_graph(2 * floor, kind="merge"), 4) == 1


# -- one thread means the caller's thread -------------------------------------


def test_fine_graph_runs_on_the_calling_thread_bitwise_equal_to_serial():
    serial = fine_build()
    SerialExecutor().run(serial.graph)

    build = fine_build()
    seen = record_threads(build)
    registry = MetricsRegistry()
    trace = ThreadedExecutor(2, metrics=registry).run(build.graph)

    assert seen == {threading.get_ident()}
    assert trace.n_cores == 1 and trace.summary()["n_cores"] == 1.0
    assert {r.core for r in trace.records} == {0}
    assert sorted(r.tid for r in trace.records) == list(range(len(build.graph)))
    assert registry.flat()["repro_exec_cores"] == 1.0
    assert np.array_equal(build.logits(), serial.logits())


def test_real_threads_fixture_brings_the_threads_back(real_threads):
    build = fine_build(seq_len=4)
    seen = record_threads(build)
    assert useful_workers(build.graph, 2) == 2
    trace = ThreadedExecutor(2).run(build.graph)
    assert trace.n_cores == 2
    assert threading.get_ident() not in seen


def test_one_thread_replay_walks_the_plan_bitwise_equal_to_serial():
    serial = fine_build()
    SerialExecutor().run(serial.graph)
    build = fine_build()
    plan = compile_graph(build.graph, n_workers=2)
    trace = ThreadedExecutor(2).run(build.graph, plan=plan)
    assert trace.n_cores == 1 and trace.scheduler == "replay"
    assert [r.tid for r in trace.records] == plan.order
    assert np.array_equal(build.logits(), serial.logits())


# -- schedulers still decide the order ----------------------------------------


def test_recording_scheduler_records_the_fuzz_order_and_replays_it():
    def run(scheduler):
        build = fine_build(seq_len=4)
        trace = ThreadedExecutor(2, scheduler).run(build.graph)
        assert trace.n_cores == 1
        return [r.tid for r in trace.records], build.logits()

    recording = RecordingScheduler(FuzzScheduler(2, seed=3))
    order, logits = run(recording)
    record = recording.record()
    assert record.order == order and record.seed == 3
    assert order == run("fuzz:3")[0]  # the seed decides, as on ThreadedExecutor(1)
    assert order != run("fuzz:4")[0] and order != run("fifo")[0]
    replayed_order, replayed_logits = run(ReplayScheduler(record))
    assert replayed_order == order
    assert np.array_equal(replayed_logits, logits)


# -- errors and hooks ----------------------------------------------------------


def test_raising_payload_surfaces_unchanged():
    build = fine_build(seq_len=4)
    ran = []
    for task in build.graph.tasks:
        task.fn = lambda tid=task.tid: ran.append(tid)

    def boom():
        raise RuntimeError("payload failure")

    build.graph.tasks[5].fn = boom
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError, match="payload failure"):
        ThreadedExecutor(2, "fifo", metrics=registry).run(build.graph)
    assert 5 not in ran and len(ran) < len(build.graph) - 1
    assert "repro_exec_runs_total" not in registry.flat()  # nothing published


def test_mismatched_replay_raises_what_it_raised():
    recording = RecordingScheduler(FuzzScheduler(1, seed=1))
    ThreadedExecutor(2, recording).run(fine_build(seq_len=4).graph)
    record = recording.record()
    record.names[3] = "not-the-task"
    with pytest.raises(ValueError, match="schedule replay mismatch at position 3"):
        ThreadedExecutor(2, ReplayScheduler(record)).run(fine_build(seq_len=4).graph)

    build = fine_build(seq_len=4)
    plan = compile_graph(build.graph)
    plan.names[3] = "not-the-task"
    with pytest.raises(ValueError, match="plan mismatch at step 3"):
        ThreadedExecutor(2).run(build.graph, plan=plan)


def test_plan_releasing_a_task_before_its_predecessor_is_refused():
    build = fine_build(seq_len=4)
    plan = compile_graph(build.graph)
    a = next(t for t in plan.order if plan.successors[t])
    b = plan.successors[a][0]
    ia, ib = plan.order.index(a), plan.order.index(b)
    plan.order[ia], plan.order[ib] = b, a
    plan.names[ia], plan.names[ib] = plan.names[ib], plan.names[ia]
    with pytest.raises(ValueError, match="before its predecessors"):
        ThreadedExecutor(2).run(build.graph, plan=plan)


@pytest.mark.parametrize("replay", [False, True], ids=["dynamic", "replay"])
def test_hooks_fire_once_per_task(replay):
    build = fine_build(seq_len=4)
    starts, ends = [], []
    hooks = CallbackHooks(
        on_task_start=lambda task, core, t: starts.append((task.tid, core)),
        on_task_end=lambda task, core, t: ends.append((task.tid, core)),
    )
    plan = compile_graph(build.graph) if replay else None
    ThreadedExecutor(2, hooks=hooks).run(build.graph, plan=plan)
    assert starts == ends
    assert sorted(starts) == [(tid, 0) for tid in range(len(build.graph))]
