"""Schedule-fuzzing regression: dataflow determinism across pop orders.

The barrier-free graph's results must be a function of the dataflow only,
never of the schedule.  :class:`~repro.runtime.scheduler.FuzzScheduler`
permutes ready-queue pops under a seed — every seed is a legal schedule —
so 20 fuzzed executions of a BLSTM train step must produce parameters and
gradients *bitwise* identical to the FIFO reference.  A recorded schedule
committed under ``tests/fixtures/`` is replayed as a golden regression:
graph registration order, tids, and names must stay reproducible across
code changes, or the replay raises a diagnosable mismatch.

The same sweep runs against the multiprocess backend: schedule fuzzing
over worker *processes* additionally proves the shared-memory transport
is schedule-independent (no import/export ordering assumption survives
20 permuted schedules).  A second golden fixture
(``mp_blstm_train_schedule.json``, a build with two-step chain tiles — the
GIL-bound shape the process executor exists for) is replayed on the
process backend.  Note the scheduler machinery itself needed no changes
for this: schedulers key locality and steal accounting on caller-passed
core ids (see ``SchedulerCounters``), never on thread identity, and the
multiprocess manager drives them from a single thread passing worker
ids — the fuzz sweep below is the regression proving that holds.

Regenerate the fixtures (after an intentional builder change) with::

    PYTHONPATH=src python tests/runtime/test_schedule_fuzz.py regen
"""

import os

import numpy as np
import pytest

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime.mpexec import MultiprocessExecutor
from repro.runtime.racecheck import (
    _result_fingerprint,
    fuzz_equivalence_sweep,
    record_schedule,
    replay_schedule,
)
from repro.runtime.scheduler import FuzzScheduler, RecordingScheduler, ScheduleRecord
from repro.runtime.executor import ThreadedExecutor
from tests.conftest import build_functional, make_batch, small_spec

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")

_FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures"
)
FIXTURE = os.path.join(_FIXTURE_DIR, "blstm_train_schedule.json")

#: the multiprocess golden: a fuzzed schedule of the GIL-bound tiled
#: train step, replayed on worker processes
MP_FIXTURE = os.path.join(_FIXTURE_DIR, "mp_blstm_train_schedule.json")

#: seed of the fuzzed schedule frozen in the fixtures
FIXTURE_SEED = 7
MP_FIXTURE_SEED = 13


def _fixture_build():
    """The deterministic BLSTM train-step build the fixture was recorded from."""
    spec = small_spec(num_layers=2)
    x, labels = make_batch(spec)
    params = BRNNParams.initialize(spec, seed=11)
    return build_brnn_graph(
        spec, x=x, labels=labels, params=params, training=True, mbs=2, lr=0.05
    )


def _param_bytes(result):
    return [arr.tobytes() for _, arr in result.params.arrays()]


def _grad_bytes(result):
    return [
        arr.tobytes()
        for chunk in result.chunks
        for _, arr in chunk.grads.arrays()
    ]


def _mp_fixture_build():
    """The GIL-bound tiled train step the mp fixture records."""
    return build_functional(
        cell="lstm", head="many_to_one", training=True, mbs=2, wavefront_tile=2,
    )


def test_twenty_fuzz_seeds_are_bitwise_identical_to_fifo():
    sweep = fuzz_equivalence_sweep(_fixture_build, range(20), n_workers=2)
    assert sweep.ok, sweep.summary()
    assert len(sweep.seeds) == 20


def test_process_backend_fuzz_seeds_bitwise_identical_to_threaded_fifo():
    """Reduced tier-1 leg: fuzzed schedules on worker processes reproduce
    the threaded FIFO reference exactly (cross-substrate determinism)."""
    sweep = fuzz_equivalence_sweep(
        _fixture_build, range(3), n_workers=2,
        executor_factory=MultiprocessExecutor,
    )
    assert sweep.ok, sweep.summary()


@pytest.mark.slow_mp
def test_process_backend_twenty_fuzz_seeds():
    """The full 20-seed sweep of the threaded regression, on processes."""
    sweep = fuzz_equivalence_sweep(
        _fixture_build, range(20), n_workers=2,
        executor_factory=MultiprocessExecutor,
    )
    assert sweep.ok, sweep.summary()
    assert len(sweep.seeds) == 20


def test_fuzz_scheduler_pop_order_is_seed_deterministic():
    orders = []
    for _ in range(2):
        rec = RecordingScheduler(FuzzScheduler(seed=FIXTURE_SEED))
        ThreadedExecutor(1, rec).run(_fixture_build().graph)
        orders.append(rec.record().order)
    assert orders[0] == orders[1]
    assert orders[0] != sorted(orders[0])  # the fuzz actually permutes


def test_golden_schedule_replays_bitwise():
    record = ScheduleRecord.load(FIXTURE)
    assert record.scheduler == "fuzz" and record.seed == FIXTURE_SEED

    reference = _fixture_build()
    ThreadedExecutor(1).run(reference.graph)

    replayed = _fixture_build()
    trace = replay_schedule(replayed.graph, record, n_workers=1)

    assert [r.tid for r in trace.records] == record.order  # one worker: pop order
    assert [t.name for t in replayed.graph] == [
        record.names[record.order.index(t.tid)] for t in replayed.graph
    ]
    assert _param_bytes(replayed) == _param_bytes(reference)
    assert _grad_bytes(replayed) == _grad_bytes(reference)


def test_mp_golden_schedule_replays_bitwise_on_process_backend():
    """The committed mp fixture replayed on worker processes matches a
    threaded FIFO reference bitwise — pins graph registration order *and*
    the shared-memory transport against drift."""
    record = ScheduleRecord.load(MP_FIXTURE)
    assert record.scheduler == "fuzz" and record.seed == MP_FIXTURE_SEED

    reference = _mp_fixture_build()
    ThreadedExecutor(1).run(reference.graph)

    replayed = _mp_fixture_build()
    trace = replay_schedule(
        replayed.graph, record, n_workers=2,
        executor_factory=MultiprocessExecutor,
    )
    assert len(trace.records) == len(record.order)
    expected = _result_fingerprint(reference)
    got = _result_fingerprint(replayed)
    bad = sorted(name for name in expected if got.get(name) != expected[name])
    assert not bad, f"process replay of the golden schedule diverged: {bad}"


def test_replay_rejects_drifted_graph():
    record = ScheduleRecord.load(FIXTURE)
    drifted = _fixture_build()
    drifted.graph.tasks[record.order[0]].name = "not-the-recorded-task"
    with pytest.raises(ValueError, match="mismatch"):
        replay_schedule(drifted.graph, record, n_workers=1)


def test_schedule_record_json_roundtrip(tmp_path):
    record, _ = record_schedule(
        _fixture_build().graph, scheduler=f"fuzz:{FIXTURE_SEED}", n_workers=1
    )
    path = tmp_path / "sched.json"
    record.save(str(path))
    loaded = ScheduleRecord.load(str(path))
    assert loaded.order == record.order
    assert loaded.names == record.names
    assert loaded.seed == FIXTURE_SEED


def _regen():  # pragma: no cover - fixture maintenance
    os.makedirs(_FIXTURE_DIR, exist_ok=True)
    record, _ = record_schedule(
        _fixture_build().graph, scheduler=f"fuzz:{FIXTURE_SEED}", n_workers=1
    )
    record.save(FIXTURE)
    print(f"wrote {FIXTURE} ({len(record.order)} tasks)")
    record, _ = record_schedule(
        _mp_fixture_build().graph, scheduler=f"fuzz:{MP_FIXTURE_SEED}", n_workers=1
    )
    record.save(MP_FIXTURE)
    print(f"wrote {MP_FIXTURE} ({len(record.order)} tasks)")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        _regen()
