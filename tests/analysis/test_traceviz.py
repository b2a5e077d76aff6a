"""Tests for Chrome-trace export and the ASCII timeline."""

import json

import pytest

from repro.analysis.traceviz import ascii_timeline, save_chrome_trace, to_chrome_trace
from repro.config import ExecutionConfig
from repro.runtime.trace import ExecutionTrace, TaskRecord


def sample_trace():
    t = ExecutionTrace(n_cores=2)
    t.records = [
        TaskRecord(tid=0, name="a", kind="cell", core=0, start=0.0, end=0.5,
                   flops=10.0, wss_bytes=64),
        TaskRecord(tid=1, name="b", kind="merge", core=1, start=0.25, end=1.0),
    ]
    return t


def test_chrome_trace_structure():
    doc = to_chrome_trace(sample_trace())
    events = doc["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == 2
    a = next(e for e in slices if e["name"] == "a")
    assert a["ts"] == pytest.approx(0.0)
    assert a["dur"] == pytest.approx(0.5e6)
    assert a["tid"] == 0
    assert a["cat"] == "cell"
    assert a["args"]["flops"] == 10.0


def test_chrome_trace_metadata_rows():
    doc = to_chrome_trace(sample_trace(), process_name="demo")
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"].get("name") == "demo" for e in metas)
    assert sum(1 for e in metas if e["name"] == "thread_name") == 2


def test_chrome_trace_is_json_serialisable(tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(sample_trace(), path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) >= 2


def test_chrome_trace_of_real_execution(tmp_path):
    """Export a genuine B-Par trace end to end."""
    import numpy as np
    from repro.core import BParEngine
    from repro.runtime import ThreadedExecutor
    from tests.conftest import make_batch, small_spec

    spec = small_spec()
    x, labels = make_batch(spec)
    engine = BParEngine(
        spec, config=ExecutionConfig(executor=ThreadedExecutor(2), seed=0)
    )
    engine.train_batch(x, labels)
    doc = to_chrome_trace(engine.last_trace)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == engine.last_trace.num_tasks()
    json.dumps(doc)  # must round-trip


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
