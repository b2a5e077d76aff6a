"""Shared helpers for the benchmark suite.

Every ``bench_*.py`` regenerates one table or figure of the paper on the
simulated 48-core machine, prints it in the paper's layout, and asserts the
*shape* criteria from DESIGN.md §4 (who wins, by roughly what factor, where
crossovers fall).  Absolute milliseconds are model outputs, not wall time.

Set ``REPRO_BENCH_FULL=1`` to run the paper's complete configuration grids
(minutes); the default grids cover every regime in a few seconds per bench.
"""

import os


def full_grids() -> bool:
    """True when the complete paper grids were requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The interesting output of these benches is the *simulated* timing data
    printed afterwards; pytest-benchmark wraps the experiment so the whole
    suite integrates with ``--benchmark-only`` runs and records the wall
    time of regenerating each table/figure.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
