"""Working-set accounting (§IV-B "Memory Consumption").

The paper measures the working set of the *in-flight* computation: with
per-layer barriers an 8-layer BLSTM at mbs:6 keeps ~6 tasks live (28.26 MB
of data touched concurrently); barrier-free B-Par keeps ~16 live
(75.36 MB).  We reproduce the metric as the time-weighted mean (and peak)
of the summed working sets of concurrently-running tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.runtime.trace import ExecutionTrace


@dataclass
class WorkingSetStats:
    """Concurrent working-set summary of one trace."""

    mean_live_tasks: float
    peak_live_tasks: int
    mean_live_wss_bytes: float
    peak_live_wss_bytes: int


def working_set_stats(trace: ExecutionTrace) -> WorkingSetStats:
    """Time-weighted live-task count and live working-set size."""
    events: List[Tuple[float, int, int]] = []
    for r in trace.records:
        events.append((r.start, 1, r.wss_bytes))
        events.append((r.end, -1, -r.wss_bytes))
    if not events:
        raise ValueError("empty trace")
    # Ends (-1) sort before starts (+1) at equal timestamps so back-to-back
    # tasks don't appear momentarily concurrent.
    events.sort(key=lambda e: (e[0], e[1]))

    live = 0
    wss = 0
    peak_live = 0
    peak_wss = 0
    t_prev = events[0][0]
    area_live = 0.0
    area_wss = 0.0
    for t, delta, dw in events:
        span = t - t_prev
        if span > 0:
            area_live += live * span
            area_wss += wss * span
            t_prev = t
        live += delta
        wss += dw
        peak_live = max(peak_live, live)
        peak_wss = max(peak_wss, wss)
    total = events[-1][0] - events[0][0]
    if total <= 0:
        total = 1.0
    return WorkingSetStats(
        mean_live_tasks=area_live / total,
        peak_live_tasks=peak_live,
        mean_live_wss_bytes=area_wss / total,
        peak_live_wss_bytes=peak_wss,
    )
