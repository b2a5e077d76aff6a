"""Experiment drivers shared by the benchmark suite and the examples.

Each paper table/figure has a driver here that produces plain data rows;
``benchmarks/`` wraps them in pytest-benchmark entries and printing, and
EXPERIMENTS.md records the measured-vs-paper comparison.  The gated
suites behind ``python -m repro bench`` (their sizes, schemas and bars)
are the table in :mod:`repro.harness.ledger` — imported on demand, not
here, because it pulls in every driver.
"""

from repro.harness.fusionbench import run_fusion_bench
from repro.harness.measure import summarize_times
from repro.harness.simtime import simulated_batch_time, SimTiming

__all__ = [
    "run_fusion_bench",
    "simulated_batch_time",
    "SimTiming",
    "summarize_times",
]
