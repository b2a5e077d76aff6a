"""Executor substrate comparison: worker processes vs worker threads.

The multiprocess executor (``executor="process"``, docs/EXECUTORS.md)
escapes the GIL by running payloads in pinned worker processes over
shared memory.  This bench records the two regimes that bound its value:

* ``gil_bound`` (``fusion="off"``): per-gate GEMMs + separate pointwise
  activation passes — small tasks that hold the GIL and serialise the
  threaded executor.  On a multi-core host the process executor must
  clear **1.3×** the threaded median.
* ``default`` (``fusion="gates"``): large stacked GEMMs that release the
  GIL.  Transport overhead must cost ≤10 % (**≥0.9×** threaded).

The speed-up bars (suite ``multiproc`` of ``repro.harness.ledger``) are
enforced only when the host has ≥2 cores — parallel speed-up is
unmeasurable on one core — but bitwise equivalence of the two
substrates' logits and the zero-leaked-segments invariant are enforced
unconditionally, at paper scale.
"""

import pytest

from benchmarks.common import run_once
from repro.harness.ledger import check_report, run_suite
from repro.harness.mpbench import run_multiproc_bench


def test_record_config(benchmark):
    """Paper-scale point: measure it and hold it to the ledger's bars."""
    report = run_once(benchmark, lambda: run_suite("multiproc", scope="record"))
    assert check_report(report) == []


@pytest.mark.parametrize("mbs", [1, 4])
def test_small_scale_end_to_end(benchmark, mbs):
    """Laptop-scale sanity at both chunkings: both regimes run end-to-end,
    stay bitwise identical, and leak nothing (no speed-up asserted)."""
    point = run_once(
        benchmark,
        lambda: run_multiproc_bench(
            cell="gru", input_size=64, hidden=32, layers=2,
            seq_len=16, batch=8, mbs=mbs, iters=2, warmup=1,
        ),
    )
    results = point["results"]
    assert results["bitwise_identical"]
    assert results["leaked_segments"] == 0
    for row in results["regimes"].values():
        assert row["speedup_median"] > 0.0
