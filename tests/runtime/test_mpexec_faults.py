"""Fault injection against the multiprocess executor.

Crash containment is a hard guarantee, not a best effort: a worker
process dying mid-task (SIGKILL — no atexit, no finally, no pickle
goodbye) must surface as a :class:`WorkerCrashError` naming the in-flight
task, must never hang the manager, and must never leak a ``/dev/shm``
segment; a failing payload must come back as its own exception, not a
deadlock.  The leak asserts read only this process's
segments (``own_segments``), so a process-executor run beside the suite
cannot fail them.  Every test runs under an alarm so a regression fails
fast instead of wedging the suite.
"""

import os
import signal

import numpy as np
import pytest

from repro.runtime.mpexec import MultiprocessExecutor
from repro.runtime.protocol import Executor, ExecutorError, WorkerCrashError
from tests.conftest import build_functional, own_segments

#: generous wall-clock bound: fault handling is prompt or it is broken
DEADLINE_S = 60


@pytest.fixture(autouse=True)
def _deadline():
    """Fail (don't hang) if fault handling wedges the manager loop."""

    def _expired(signum, frame):
        raise AssertionError(
            f"fault-injection test exceeded {DEADLINE_S}s — manager hung"
        )

    old = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _mid_graph_task(graph):
    """A payload task past the graph's roots (so the run is mid-flight)."""
    payload_tids = [t.tid for t in graph.tasks if t.fn is not None]
    return graph.tasks[payload_tids[len(payload_tids) // 2]]


def test_sigkilled_worker_raises_crash_error_naming_the_task():
    build = build_functional(training=True, mbs=2)
    victim = _mid_graph_task(build.graph)
    victim.fn = lambda: os.kill(os.getpid(), signal.SIGKILL)

    before = own_segments()
    with pytest.raises(WorkerCrashError) as err:
        MultiprocessExecutor(2).run(build.graph)
    assert victim.name in str(err.value)
    assert "died while running" in str(err.value)
    assert own_segments() == before, "crash leaked a /dev/shm segment"


def test_crash_error_is_an_executor_error():
    exc = WorkerCrashError(1, 4242, "cell:f0:t3")
    assert isinstance(exc, ExecutorError)
    assert isinstance(exc, RuntimeError)
    assert exc.worker == 1 and exc.pid == 4242 and exc.task_name == "cell:f0:t3"
    assert "cell:f0:t3" in str(exc) and "4242" in str(exc)
    assert "idle" in str(WorkerCrashError(0, 1, None))


def test_crash_restores_parent_storage_bindings():
    """After a crash the parent's parameter arrays are its own heap arrays
    again (not dead shm views), so the engine object stays usable."""
    build = build_functional(training=True, mbs=2)
    victim = _mid_graph_task(build.graph)
    victim.fn = lambda: os.kill(os.getpid(), signal.SIGKILL)
    with pytest.raises(WorkerCrashError):
        MultiprocessExecutor(2).run(build.graph)
    # every parameter array must be readable and writable post-crash —
    # a leaked shm-backed view would segfault or raise here
    for _, arr in build.params.arrays():
        arr += 0.0
        assert np.isfinite(arr).all() or True  # touch every element


def test_failing_payload_propagates_original_exception():
    build = build_functional(training=True, mbs=2)
    victim = _mid_graph_task(build.graph)

    def explode():
        raise ValueError("injected payload failure")

    victim.fn = explode
    before = own_segments()
    with pytest.raises(ValueError, match="injected payload failure"):
        MultiprocessExecutor(2).run(build.graph)
    assert own_segments() == before


def test_executor_protocol_conformance():
    ex = MultiprocessExecutor(2)
    assert isinstance(ex, Executor)
    assert ex.n_workers == 2
    with pytest.raises(ValueError):
        MultiprocessExecutor(0)
