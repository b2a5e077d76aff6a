"""Tests for the ASCII timeline."""

from repro.analysis.traceviz import ascii_timeline
from repro.runtime.trace import ExecutionTrace, TaskRecord


def sample_trace():
    t = ExecutionTrace(n_cores=2)
    t.records = [
        TaskRecord(tid=0, name="a", kind="cell", core=0, start=0.0, end=0.5,
                   flops=10.0, wss_bytes=64),
        TaskRecord(tid=1, name="b", kind="merge", core=1, start=0.25, end=1.0),
    ]
    return t


def test_ascii_timeline_shape():
    art = ascii_timeline(sample_trace(), width=20)
    lines = art.splitlines()
    assert len(lines) == 2
    assert all(line.endswith("|") for line in lines)
    # core 0 busy in the first half, idle in the second
    row0 = lines[0].split("|")[1]
    assert "#" in row0[:10]
    assert row0[-3:].strip() == ""


def test_ascii_timeline_empty():
    assert ascii_timeline(ExecutionTrace(n_cores=1)) == "(empty trace)"
