"""Unit tests for execution traces and derived statistics."""

import pytest

from repro.runtime.trace import ExecutionTrace, TaskRecord


def rec(tid, start, end, core=0, kind="cell", flops=0.0, wss=0, overhead=0.0):
    return TaskRecord(tid=tid, name=f"t{tid}", kind=kind, core=core,
                      start=start, end=end, flops=flops, wss_bytes=wss,
                      overhead=overhead)


def trace(records, n_cores=2):
    t = ExecutionTrace(n_cores=n_cores)
    t.records = records
    return t


def test_makespan():
    t = trace([rec(0, 1.0, 2.0), rec(1, 0.5, 1.5)])
    assert t.makespan == pytest.approx(1.5)
    assert trace([]).makespan == 0.0


def test_total_task_time_and_overhead():
    t = trace([rec(0, 0, 2, overhead=0.1), rec(1, 0, 1, overhead=0.2)])
    assert t.total_task_time == pytest.approx(3.0)
    assert t.total_overhead == pytest.approx(0.3)


def test_num_tasks_by_kind():
    t = trace([rec(0, 0, 1, kind="cell"), rec(1, 0, 1, kind="merge")])
    assert t.num_tasks() == 2
    assert t.num_tasks("cell") == 1
    assert t.num_tasks("loss") == 0


def test_core_busy_time():
    t = trace([rec(0, 0, 2, core=0), rec(1, 0, 1, core=1), rec(2, 1, 2, core=1)])
    busy = t.core_busy_time()
    assert busy[0] == pytest.approx(2.0)
    assert busy[1] == pytest.approx(2.0)


def test_parallel_efficiency():
    # 2 cores, both fully busy over [0, 1]: efficiency 1.0
    t = trace([rec(0, 0, 1, core=0), rec(1, 0, 1, core=1)])
    assert t.parallel_efficiency() == pytest.approx(1.0)
    # one idle core halves it
    t2 = trace([rec(0, 0, 1, core=0)])
    assert t2.parallel_efficiency() == pytest.approx(0.5)


def test_concurrency_profile_and_peak():
    t = trace([rec(0, 0, 2), rec(1, 1, 3)])
    profile = t.concurrency_profile()
    assert profile[0] == (0, 1)
    assert (1, 2) in profile
    assert t.peak_concurrency() == 2
    assert t.average_concurrency() == pytest.approx((1 + 2 + 1) / 3, rel=0.01)


def test_durations_filter():
    t = trace([rec(0, 0, 1, kind="cell"), rec(1, 0, 3, kind="merge")])
    assert t.durations() == [1.0, 3.0]
    assert t.durations("merge") == [3.0]


def test_merge_traces_with_offset():
    t1 = trace([rec(0, 0, 1)])
    t2 = trace([rec(0, 0, 1)])
    merged = ExecutionTrace.merge_all([t1, t2], time_offsets=[0.0, 5.0])
    assert merged.num_tasks() == 2
    assert merged.makespan == pytest.approx(6.0)
    # records are copied, not aliased
    assert merged.records[1] is not t2.records[0]


def test_percentile_function():
    from repro.runtime.trace import percentile

    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 25) == pytest.approx(2.0)
    assert percentile([7.0], 99) == 7.0
    # interpolates like numpy's default method
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(xs, 101)


def test_duration_percentiles_and_filtering():
    t = trace([rec(i, 0, float(i + 1), kind="cell") for i in range(4)]
              + [rec(9, 0, 100.0, kind="merge")])
    pcts = t.duration_percentiles()
    assert set(pcts) == {"p50", "p95", "p99"}
    assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]
    # kind filter excludes the 100 s merge outlier
    assert t.duration_percentiles((100,), kind="cell") == {"p100": pytest.approx(4.0)}
    assert t.duration_percentiles((100,)) == {"p100": pytest.approx(100.0)}


def test_summary_dict():
    t = trace([rec(0, 0, 2, core=0), rec(1, 0, 1, core=1)])
    s = t.summary()
    assert s["num_tasks"] == 2
    assert s["makespan_s"] == pytest.approx(2.0)
    assert s["task_duration_mean_s"] == pytest.approx(1.5)
    assert s["task_duration_p50_s"] == pytest.approx(1.5)
    assert s["task_duration_min_s"] == 1.0
    assert s["task_duration_max_s"] == 2.0
    assert 0 < s["parallel_efficiency"] <= 1.0
    # empty traces still summarise without raising
    empty = trace([]).summary()
    assert empty["num_tasks"] == 0 and "task_duration_p50_s" not in empty
