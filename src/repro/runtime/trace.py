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

    def execution_order(self) -> List[int]:
        """Task tids in dispatch order (start time, record order on ties).

        On a single-worker executor this is exactly the scheduler's pop
        order, which lets schedule-replay tests compare an execution
        against a recorded :class:`~repro.runtime.scheduler.ScheduleRecord`.
        """
        indexed = sorted(
            range(len(self.records)), key=lambda i: (self.records[i].start, i)
        )
        return [self.records[i].tid for i in indexed]

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

    def summary(self) -> Dict[str, float]:
        """One-stop statistics dict: end-to-end and task-duration figures.

        Benchmarks should consume this (or :meth:`duration_percentiles`)
        instead of re-deriving percentiles from raw records.
        """
        out: Dict[str, float] = {
            "num_tasks": float(len(self.records)),
            "n_cores": float(self.n_cores),
            "makespan_s": self.makespan,
            "total_task_time_s": self.total_task_time,
            "total_overhead_s": self.total_overhead,
            "parallel_efficiency": self.parallel_efficiency(),
            "average_concurrency": self.average_concurrency(),
        }
        if self.records:
            xs = self.durations()
            out["task_duration_mean_s"] = sum(xs) / len(xs)
            out["task_duration_min_s"] = min(xs)
            out["task_duration_max_s"] = max(xs)
            for key, val in self.duration_percentiles().items():
                out[f"task_duration_{key}_s"] = val
        return out

    @classmethod
    def merge_all(
        cls,
        traces: Sequence["ExecutionTrace"],
        time_offsets: Optional[Sequence[float]] = None,
    ) -> "ExecutionTrace":
        """Concatenate many traces in one pass (vs. O(n²) chained :meth:`merge`).

        ``n_cores`` is the max over the inputs, re-based against the widest
        core id actually recorded — merging a 4-core simulated trace into a
        2-worker threaded one must not leave records pointing at cores the
        declared width doesn't cover.  ``time_offsets[i]`` shifts trace *i*
        onto a shared clock (e.g. batch start times); defaults to 0.
        """
        if time_offsets is not None and len(time_offsets) != len(traces):
            raise ValueError("time_offsets must match traces in length")
        declared = max((t.n_cores for t in traces), default=0)
        out = cls(
            n_cores=declared,
            scheduler=traces[0].scheduler if traces else "",
        )
        max_core = -1
        for i, t in enumerate(traces):
            off = time_offsets[i] if time_offsets is not None else 0.0
            for r in t.records:
                if r.core > max_core:
                    max_core = r.core
                out.records.append(
                    TaskRecord(
                        tid=r.tid,
                        name=r.name,
                        kind=r.kind,
                        core=r.core,
                        start=r.start + off,
                        end=r.end + off,
                        flops=r.flops,
                        wss_bytes=r.wss_bytes,
                        instructions=r.instructions,
                        l3_miss_bytes=r.l3_miss_bytes,
                        remote_miss_bytes=r.remote_miss_bytes,
                        overhead=r.overhead,
                    )
                )
        out.n_cores = max(declared, max_core + 1)
        return out

    def merge(self, other: "ExecutionTrace", time_offset: float = 0.0) -> "ExecutionTrace":
        """Concatenate two traces (e.g. successive batches) into one."""
        out = ExecutionTrace(n_cores=max(self.n_cores, other.n_cores), scheduler=self.scheduler)
        out.records = list(self.records)
        for r in other.records:
            out.records.append(
                TaskRecord(
                    tid=r.tid,
                    name=r.name,
                    kind=r.kind,
                    core=r.core,
                    start=r.start + time_offset,
                    end=r.end + time_offset,
                    flops=r.flops,
                    wss_bytes=r.wss_bytes,
                    instructions=r.instructions,
                    l3_miss_bytes=r.l3_miss_bytes,
                    remote_miss_bytes=r.remote_miss_bytes,
                    overhead=r.overhead,
                )
            )
        return out
