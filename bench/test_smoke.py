"""Smoke test of the benchmark: ``run.py --quick`` prints what BENCHMARK.json declares.

Run it as ``python bench/test_smoke.py`` or ``python -m pytest bench/test_smoke.py``
(the root pytest config collects ``tests/`` only, so tier-1 never runs it).
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def quick(*flags):
    """``run.py --quick`` from another cwd with no PYTHONPATH; returns its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", *flags],
        cwd=os.path.expanduser("~"), env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check(kind, flags):
    declared = [m["name"] for m in SPEC[kind]]
    stdout, result = quick(*flags)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], stdout
    assert set(result["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name
    for workload in WORKLOADS:
        assert f"== {workload} " in stdout
    assert "not for comparison" in stdout


def test_quick_prints_every_end_to_end_metric_of_every_workload():
    check("end_to_end", [])


def test_quick_trace_prints_every_per_layer_metric_of_every_workload():
    check("per_layer", ["--trace"])


def test_one_workload_prints_the_contract_object():
    _, result = quick("--workload", "infer_fine", "--seed", "3", "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1 and result["failed"] == 0


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
