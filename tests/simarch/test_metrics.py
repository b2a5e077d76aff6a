"""Unit tests for IPC / MPKI band histograms."""

import pytest

from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.simarch.metrics import (
    BandHistogram,
    ipc_histogram,
    mpki_histogram,
    task_ipc,
    task_mpki,
)
from repro.simarch.presets import laptop_sim


def rec(duration, instructions, miss_bytes, start=0.0):
    return TaskRecord(
        tid=0, name="t", kind="cell", core=0,
        start=start, end=start + duration,
        instructions=instructions, l3_miss_bytes=miss_bytes,
    )


def test_task_ipc():
    m = laptop_sim(1)  # 3 GHz
    r = rec(duration=1.0, instructions=3e9, miss_bytes=0)
    assert task_ipc(r, m) == pytest.approx(1.0)


def test_task_mpki():
    r = rec(duration=1.0, instructions=1e6, miss_bytes=64 * 1000)
    assert task_mpki(r) == pytest.approx(1.0)  # 1000 misses per 1e3 kinstr


def test_zero_duration_and_zero_instr():
    m = laptop_sim(1)
    assert task_ipc(rec(0.0, 1e6, 0), m) == 0.0
    assert task_mpki(rec(1.0, 0.0, 100)) == 0.0


def test_histogram_time_weighted():
    m = laptop_sim(1)
    tr = ExecutionTrace(n_cores=1)
    tr.records = [
        rec(duration=3.0, instructions=3 * 3e9 * 1.75, miss_bytes=0),       # IPC 1.75
        rec(duration=1.0, instructions=1 * 3e9 * 0.25, miss_bytes=0, start=3.0),  # IPC 0.25
    ]
    h = ipc_histogram(tr, m)
    assert h.fraction_in(1.5, 2.0) == pytest.approx(0.75)
    assert h.fraction_in(0.0, 0.5) == pytest.approx(0.25)
    assert sum(h.fractions) == pytest.approx(1.0)


def test_mpki_histogram_bands():
    tr = ExecutionTrace(n_cores=1)
    tr.records = [rec(duration=1.0, instructions=1e6, miss_bytes=64 * 25_000)]  # 25 MPKI
    h = mpki_histogram(tr)
    assert h.fraction_in(20, 30) == pytest.approx(1.0)


def test_band_labels():
    h = BandHistogram(edges=(0.0, 1.0, float("inf")), fractions=[0.4, 0.6])
    assert h.band_label(0) == "[0,1)"
    assert h.band_label(1) == "[1,inf)"
    assert h.rows() == [("[0,1)", 0.4), ("[1,inf)", 0.6)]


def test_out_of_range_value_clamps_to_last_band():
    m = laptop_sim(1)
    tr = ExecutionTrace(n_cores=1)
    tr.records = [rec(duration=1.0, instructions=3e9 * 99, miss_bytes=0)]  # IPC 99
    h = ipc_histogram(tr, m)
    assert h.fractions[-1] == pytest.approx(1.0)


def test_empty_trace():
    m = laptop_sim(1)
    tr = ExecutionTrace(n_cores=1)
    assert sum(ipc_histogram(tr, m).fractions) == 0.0
