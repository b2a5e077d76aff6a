"""IPC and L3-MPKI estimation from simulated traces (Fig. 7).

The paper instruments its real runs with hardware counters and reports the
*fraction of training time* spent in IPC bands and L3-MPKI bands, with and
without locality-aware scheduling.  The simulated executor records per-task
instruction counts and L3-miss traffic, from which we derive the same
time-weighted band histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.simarch.machine import MachineSpec

#: IPC band edges, matching Fig. 7's x axis
IPC_BANDS: Tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
#: L3 misses-per-kilo-instruction band edges, matching Fig. 7
MPKI_BANDS: Tuple[float, ...] = (0.0, 1.0, 5.0, 10.0, 20.0, 30.0, 50.0, float("inf"))

CACHE_LINE = 64


def task_ipc(record: TaskRecord, machine: MachineSpec) -> float:
    """Estimated instructions-per-cycle of one task's execution window."""
    if record.duration <= 0:
        return 0.0
    cycles = record.duration * machine.freq_ghz * 1e9
    return record.instructions / cycles if cycles > 0 else 0.0

def task_mpki(record: TaskRecord) -> float:
    """Estimated L3 misses per kilo-instruction of one task."""
    if record.instructions <= 0:
        return 0.0
    misses = record.l3_miss_bytes / CACHE_LINE
    return misses / (record.instructions / 1000.0)


def _band_index(value: float, edges: Sequence[float]) -> int:
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return len(edges) - 2


@dataclass
class BandHistogram:
    """Time-weighted histogram: fraction of execution time per value band."""

    edges: Tuple[float, ...]
    fractions: List[float]

    def band_label(self, i: int) -> str:
        hi = self.edges[i + 1]
        hi_s = "inf" if hi == float("inf") else f"{hi:g}"
        return f"[{self.edges[i]:g},{hi_s})"

    def fraction_in(self, lo: float, hi: float) -> float:
        """Total time fraction of bands whose range lies within [lo, hi)."""
        total = 0.0
        for i, frac in enumerate(self.fractions):
            if self.edges[i] >= lo and self.edges[i + 1] <= hi:
                total += frac
        return total

    def rows(self) -> List[Tuple[str, float]]:
        return [(self.band_label(i), f) for i, f in enumerate(self.fractions)]


def ipc_histogram(trace: ExecutionTrace, machine: MachineSpec) -> BandHistogram:
    """Fraction of busy execution time spent in each :data:`IPC_BANDS` band."""
    return _weighted_histogram(trace, IPC_BANDS, lambda r: task_ipc(r, machine))


def mpki_histogram(trace: ExecutionTrace) -> BandHistogram:
    """Fraction of busy execution time spent in each :data:`MPKI_BANDS` band."""
    return _weighted_histogram(trace, MPKI_BANDS, task_mpki)


def _weighted_histogram(trace, edges, value_fn) -> BandHistogram:
    fractions = [0.0] * (len(edges) - 1)
    total = 0.0
    for record in trace.records:
        if record.duration <= 0:
            continue
        fractions[_band_index(value_fn(record), edges)] += record.duration
        total += record.duration
    if total > 0:
        fractions = [f / total for f in fractions]
    return BandHistogram(edges=edges, fractions=fractions)
