"""The granularity floor and the one-thread path (docs/EXECUTORS.md).

``plan_granularity`` decides from a shape's GEMM flops per cell step
(``spec_gemm_flops_per_cell_step``) whether ``n_workers`` threads are worth
starting; the engines pass that decision to ``ThreadedExecutor.run``, and a
graph run on one thread under a policy name runs on the calling thread in
registration order, under the same trace and error contract; a fuzz
seed or a primed scheduler drives the worker loop.  Everything here is
deterministic and clock-free: the shapes are the benchmark's two engine
workloads (``bench/workloads.py``), shortened.
"""

import threading

import numpy as np
import pytest

from repro.compile import compile_graph
from repro.config import ExecutionConfig
from repro.core import graph_builder
from repro.core.graph_builder import (
    build_brnn_graph,
    plan_granularity,
    spec_gemm_flops_per_cell_step,
)
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.obs import MetricsRegistry
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.mpexec import MultiprocessExecutor
from repro.runtime.scheduler import (
    FuzzScheduler,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleRecord,
)
from repro.runtime.simexec import SimulatedExecutor
from tests.conftest import laptop_sim

#: ``infer_fine``: ~0.07 MFLOP of GEMM per cell step
FINE = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4,
                head="many_to_one", num_classes=11)
#: ``train_gemm``: ~46 MFLOP of GEMM per cell step
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


# -- the rule -----------------------------------------------------------------


def test_fine_graph_gets_one_thread_and_gemm_graph_gets_them_all():
    fine = spec_gemm_flops_per_cell_step(FINE, 4, 1, 100, False, [False] * 4)
    assert 6e4 < fine < 8e4
    assert plan_granularity(FINE, 4, 100, False, 2, "threaded").threads == 1
    train = spec_gemm_flops_per_cell_step(GEMM, 64, 2, 32, True, [True] * 3)
    assert 4e7 < train < 5e7
    config = ExecutionConfig(mbs=2)
    assert plan_granularity(GEMM, 64, 32, True, 2, "threaded", config).threads == 2
    assert plan_granularity(GEMM, 64, 32, True, 1, "threaded", config).threads == 1


def test_boundary_sits_at_the_constant(monkeypatch):
    flops = spec_gemm_flops_per_cell_step(FINE, 4, 1, 100, False, [False] * 4)
    for floor, threads in ((flops, 4), (flops * (1 + 1e-9), 1)):
        monkeypatch.setattr(graph_builder, "MIN_GEMM_FLOPS_PER_CELL_STEP", floor)
        assert plan_granularity(FINE, 4, 100, False, 4, "threaded").threads == threads


# -- one thread means the caller's thread, in registration order --------------


def test_fine_graph_runs_on_the_calling_thread_bitwise_equal_to_serial():
    serial = fine_build()
    SerialExecutor().run(serial.graph)

    build = fine_build()
    seen = record_threads(build)
    registry = MetricsRegistry()
    trace = ThreadedExecutor(2, metrics=registry).run(build.graph, threads=1)

    assert seen == {threading.get_ident()}
    assert trace.n_cores == 1
    assert {r.core for r in trace.records} == {0}
    assert sorted(r.tid for r in trace.records) == list(range(len(build.graph)))
    assert registry.flat()["repro_exec_cores"] == 1.0
    assert np.array_equal(build.logits(), serial.logits())


def test_real_threads_fixture_brings_the_threads_back(real_threads):
    build = fine_build(seq_len=4)
    seen = record_threads(build)
    assert plan_granularity(FINE, 4, 4, False, 2, "threaded").threads == 2
    trace = ThreadedExecutor(2).run(build.graph)  # a hand-built graph: every worker
    assert trace.n_cores == 2
    assert threading.get_ident() not in seen


@pytest.mark.parametrize(
    "n_workers, threads, scheduler",
    [(1, None, "fifo"), (1, None, "locality"), (2, 1, "fifo"), (2, 1, "locality")],
    ids=["workers1-fifo", "workers1-locality", "threads1-fifo", "threads1-locality"],
)
def test_one_thread_runs_the_registration_order(n_workers, threads, scheduler):
    serial = fine_build()
    SerialExecutor().run(serial.graph)
    build = fine_build()
    registry = MetricsRegistry()
    executor = ThreadedExecutor(n_workers, scheduler, metrics=registry)
    trace = executor.run(build.graph, threads=threads)
    assert [r.tid for r in trace.records] == list(range(len(build.graph)))
    assert np.array_equal(build.logits(), serial.logits())
    assert registry.flat()["repro_exec_cores"] == 1.0


# -- schedulers still decide the order ----------------------------------------


def test_recording_scheduler_records_the_fuzz_order_and_replays_it():
    def run(scheduler):
        build = fine_build(seq_len=4)
        trace = ThreadedExecutor(2, scheduler).run(build.graph, threads=1)
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


# -- errors and traces ----------------------------------------------------------


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
        ThreadedExecutor(2, "fifo", metrics=registry).run(build.graph, threads=1)
    assert 5 not in ran and len(ran) < len(build.graph) - 1
    assert "repro_exec_runs_total" not in registry.flat()  # nothing published


def test_mismatched_replay_raises_what_it_raised():
    recording = RecordingScheduler(FuzzScheduler(1, seed=1))
    ThreadedExecutor(2, recording).run(fine_build(seq_len=4).graph, threads=1)
    record = recording.record()
    record.names[3] = "not-the-task"
    with pytest.raises(ValueError, match="schedule replay mismatch at position 3"):
        ThreadedExecutor(2, ReplayScheduler(record)).run(
            fine_build(seq_len=4).graph, threads=1
        )

    build = fine_build(seq_len=4)
    plan = compile_graph(build.graph)
    plan.names[3] = "not-the-task"
    with pytest.raises(ValueError, match="plan mismatch at step 3"):
        SimulatedExecutor(laptop_sim(2)).run(build.graph, plan=plan)


def registration_record(graph):
    """The registration order of ``graph`` as a replayable schedule."""
    return ScheduleRecord(order=list(range(len(graph))), names=[t.name for t in graph])


def stalled_record(graph):
    """A schedule of ``graph`` that releases a task before its predecessor:
    replay starves at that step, with no task running to free it."""
    record = registration_record(graph)
    a = next(t for t in record.order if graph.successors[t])
    b = graph.successors[a][0]
    for seq in (record.order, record.names):
        seq[a], seq[b] = seq[b], seq[a]
    return record


def stalled_plan(graph):
    """A plan of ``graph`` whose order releases a task before its predecessor:
    replay starves at that step, with no task running to free it."""
    plan = compile_graph(graph)
    a = next(t for t in plan.order if plan.successors[t])
    b = plan.successors[a][0]
    ia, ib = plan.order.index(a), plan.order.index(b)
    plan.order[ia], plan.order[ib] = b, a
    plan.names[ia], plan.names[ib] = plan.names[ib], plan.names[ia]
    return plan


def raised_within(run, seconds=60.0):
    """The exception ``run()`` raised, from a daemon thread: a run that hangs
    fails the test after ``seconds`` (a liveness guard, not a speed bar)
    instead of blocking the suite."""
    raised = []

    def target():
        try:
            run()
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "the run hung"
    return raised[0] if raised else None


def test_plan_releasing_a_task_before_its_predecessor_is_refused():
    for threads in (1, 2):
        build = fine_build(seq_len=4)
        replay = ReplayScheduler(stalled_record(build.graph))
        exc = raised_within(lambda: ThreadedExecutor(2, replay).run(build.graph, threads))
        assert isinstance(exc, RuntimeError), (threads, exc)
        assert str(exc) == f"scheduler starved with {len(build.graph)} tasks remaining"


def test_plan_releasing_a_task_before_its_predecessor_starves_every_executor():
    build = fine_build(seq_len=4)
    n = len(build.graph)
    with pytest.raises(RuntimeError, match=f"finished with {n} unexecuted tasks"):
        SimulatedExecutor(laptop_sim(2)).run(build.graph, plan=stalled_plan(build.graph))
    replay = ReplayScheduler(stalled_record(build.graph))
    with pytest.raises(RuntimeError, match=f"starved with {n} tasks remaining"):
        MultiprocessExecutor(2, replay).run(build.graph)


@pytest.mark.parametrize(
    "scheduler", ["locality", "fuzz:1", "replay"], ids=["registration", "dynamic", "replay"]
)
def test_trace_records_each_task_once(scheduler):
    build = fine_build(seq_len=4)
    if scheduler == "replay":
        scheduler = ReplayScheduler(registration_record(build.graph))
    trace = ThreadedExecutor(2, scheduler).run(build.graph, threads=1)
    assert sorted((r.tid, r.core) for r in trace.records) == [
        (tid, 0) for tid in range(len(build.graph))
    ]
    assert all(r.start <= r.end for r in trace.records)
