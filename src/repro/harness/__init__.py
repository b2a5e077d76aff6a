"""Experiment drivers shared by the gated suites and the examples.

``tables`` and ``figures`` measure one paper table or figure each; ``paper``
runs them as the sections of one suite at two grids (EXPERIMENTS.md reads
its committed record).  Every gated suite's sizes, schema and bars are the
table in :mod:`repro.harness.ledger` — imported on demand, not here, because
it pulls in every driver.
"""

from repro.harness.simtime import simulated_batch_time, SimTiming

__all__ = ["simulated_batch_time", "SimTiming"]
