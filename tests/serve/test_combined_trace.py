"""Regression: FleetStats.combined_trace with mixed-width batch traces.

An engine can hand the stats traces of different core widths (e.g. a
48-core simulated warm-up next to an 8-worker threaded run, or a re-sized
simulated executor).  The merged timeline must declare the *max* width and
re-base it against the widest core id actually recorded, so no record
points at a core outside the declared width.
"""

import pytest

from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.serve.batcher import Batch
from repro.serve.request import InferenceRequest
from repro.serve.stats import FleetStats


def _trace(n_cores, records, scheduler="locality"):
    t = ExecutionTrace(n_cores=n_cores, scheduler=scheduler)
    for tid, (core, start, end) in enumerate(records):
        t.records.append(
            TaskRecord(
                tid=tid, name=f"t{tid}", kind="cell",
                core=core, start=start, end=end,
            )
        )
    return t


def _batch(batch_id):
    return Batch(
        batch_id=batch_id,
        requests=[
            InferenceRequest(rid=batch_id, seq_len=4, arrival_time=0.0)
        ],
        padded_len=4,
        trigger="size",
        cut_time=0.0,
    )


def test_mixed_sim_and_threaded_traces_take_max_cores():
    stats = FleetStats(keep_traces=True)
    sim = _trace(48, [(40, 0.0, 1e-3), (3, 0.0, 2e-3)])
    threaded = _trace(2, [(0, 0.0, 1e-3), (1, 5e-4, 2e-3)])
    stats.record_batch(_batch(0), 0.0, 2e-3, trace=sim)
    stats.record_batch(_batch(1), 0.01, 2e-3, trace=threaded)
    combined = stats.combined_trace()
    assert combined.n_cores == 48
    assert len(combined.records) == 4
    assert all(r.core < combined.n_cores for r in combined.records)
    # Batch traces are shifted onto the server clock by service start.
    assert min(r.start for r in combined.records[2:]) == pytest.approx(0.01)


def test_records_wider_than_declared_width_rebase_n_cores():
    # A trace that (wrongly or via an executor resize) recorded core 5
    # while declaring 2 cores must widen the merged declaration.
    stats = FleetStats(keep_traces=True)
    stats.record_batch(_batch(0), 0.0, 1e-3, trace=_trace(2, [(5, 0.0, 1e-3)]))
    stats.record_batch(_batch(1), 0.0, 1e-3, trace=_trace(4, [(1, 0.0, 1e-3)]))
    combined = stats.combined_trace()
    assert combined.n_cores == 6
    assert all(r.core < combined.n_cores for r in combined.records)


def test_combined_trace_requires_keep_traces():
    with pytest.raises(RuntimeError, match="keep_traces"):
        FleetStats().combined_trace()


class TestMergeAll:
    def test_offsets_must_match(self):
        with pytest.raises(ValueError, match="time_offsets"):
            ExecutionTrace.merge_all([ExecutionTrace(n_cores=1)], time_offsets=[0.0, 1.0])

    def test_empty_input(self):
        merged = ExecutionTrace.merge_all([])
        assert merged.n_cores == 0
        assert merged.records == []

    def test_offsets_shift_each_trace_onto_one_clock(self):
        a = _trace(4, [(0, 0.0, 1e-3)])
        b = _trace(2, [(1, 0.0, 2e-3)])
        merged = ExecutionTrace.merge_all([a, b], time_offsets=[0.0, 0.5])
        assert merged.n_cores == 4
        assert [(r.name, r.core, r.start, r.end) for r in merged.records] == [
            ("t0", 0, 0.0, 1e-3), ("t0", 1, 0.5, 0.5 + 2e-3),
        ]

    def test_scheduler_taken_from_first(self):
        a = _trace(1, [], scheduler="fifo")
        b = _trace(1, [], scheduler="locality")
        assert ExecutionTrace.merge_all([a, b]).scheduler == "fifo"
