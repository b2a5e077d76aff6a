"""Execution traces and derived statistics.

Both executors emit an :class:`ExecutionTrace`: one :class:`TaskRecord`
per task with placement and timing.  The analysis modules
(:mod:`repro.analysis`) and the Fig. 7 metrics derive everything —
concurrency profiles, per-core utilisation, task-granularity and
working-set statistics — from this single structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly-interpolated percentile of ``values`` (NumPy's default method).

    Kept dependency-free so latency collectors (``repro.serve``) and trace
    summaries share one definition of p50/p95/p99.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(values) == 0:
        raise ValueError("percentile of an empty sequence")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(xs[lo])
    return float(xs[lo] + (xs[hi] - xs[lo]) * (rank - lo))


@dataclass
class TaskRecord:
    """Timing record of one executed task."""

    tid: int
    name: str
    kind: str
    core: int
    start: float
    end: float
    flops: float = 0.0
    wss_bytes: int = 0
    # Simulated-machine extras (zero for the threaded executor):
    instructions: float = 0.0
    l3_miss_bytes: int = 0
    remote_miss_bytes: int = 0
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """All task records of one graph execution plus summary helpers."""

    n_cores: int
    records: List[TaskRecord] = field(default_factory=list)
    scheduler: str = ""

    # -- basic aggregates ---------------------------------------------------

    @property
    def makespan(self) -> float:
        if not self.records:
            return 0.0
        t0 = min(r.start for r in self.records)
        t1 = max(r.end for r in self.records)
        return t1 - t0

    @property
    def total_task_time(self) -> float:
        return sum(r.duration for r in self.records)

    @property
    def total_overhead(self) -> float:
        """Runtime overhead (creation/scheduling/synchronisation) summed."""
        return sum(r.overhead for r in self.records)

    def num_tasks(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind == kind)

    def core_busy_time(self) -> Dict[int, float]:
        busy: Dict[int, float] = {c: 0.0 for c in range(self.n_cores)}
        for r in self.records:
            busy[r.core] = busy.get(r.core, 0.0) + r.duration
        return busy

    def parallel_efficiency(self) -> float:
        """busy-time / (cores × makespan); 1.0 means no idle cycles."""
        span = self.makespan
        if span <= 0 or self.n_cores == 0:
            return 1.0
        return self.total_task_time / (self.n_cores * span)

    # -- concurrency profile --------------------------------------------------

    def concurrency_profile(self) -> List[Tuple[float, int]]:
        """Piecewise-constant number of running tasks over time.

        Returns ``[(t, n), ...]`` meaning *n* tasks run from ``t`` until the
        next breakpoint.
        """
        events: List[Tuple[float, int]] = []
        for r in self.records:
            events.append((r.start, 1))
            events.append((r.end, -1))
        events.sort()
        profile: List[Tuple[float, int]] = []
        n = 0
        for t, delta in events:
            n += delta
            if profile and profile[-1][0] == t:
                profile[-1] = (t, n)
            else:
                profile.append((t, n))
        return profile

    def average_concurrency(self) -> float:
        """Time-weighted mean number of simultaneously running tasks."""
        profile = self.concurrency_profile()
        if len(profile) < 2:
            return float(bool(self.records))
        area = 0.0
        for (t0, n), (t1, _) in zip(profile, profile[1:]):
            area += n * (t1 - t0)
        span = profile[-1][0] - profile[0][0]
        return area / span if span > 0 else 0.0

    def peak_concurrency(self) -> int:
        profile = self.concurrency_profile()
        return max((n for _, n in profile), default=0)

    # -- granularity -----------------------------------------------------------

    def durations(self, kind: Optional[str] = None) -> List[float]:
        return [r.duration for r in self.records if kind is None or r.kind == kind]

    def duration_percentiles(
        self, ps: Sequence[float] = (50, 95, 99), kind: Optional[str] = None
    ) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` of task durations.

        Keys are formatted ``p<value>`` (``p99.9`` for fractional points) so
        the dict drops straight into JSON reports.
        """
        xs = self.durations(kind)
        return {f"p{p:g}": percentile(xs, p) for p in ps}
