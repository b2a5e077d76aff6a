"""A terminal view of a trace: one row per core, one column per time bucket.

Enough to *see* the barrier-free schedule (or a framework baseline's
barrier gaps) in a log.  The one trace file the project writes is
``bench/spans.py``'s span dump (``bench/run.py --trace 1 --trace-out FILE``).
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.trace import ExecutionTrace


def ascii_timeline(
    trace: ExecutionTrace,
    width: int = 80,
    max_cores: Optional[int] = 16,
) -> str:
    """Coarse per-core ASCII Gantt view of a trace (for terminals/logs).

    Each column is a makespan/width time bucket; a core's cell shows ``#``
    when the core is busy most of that bucket, ``.`` when partially busy.
    """
    span = trace.makespan
    if span <= 0 or not trace.records:
        return "(empty trace)"
    cores = sorted({r.core for r in trace.records})
    if max_cores is not None:
        cores = cores[:max_cores]
    busy = {c: [0.0] * width for c in cores}
    for r in trace.records:
        if r.core not in busy:
            continue
        lo = int(r.start / span * width)
        hi = min(width - 1, int(r.end / span * width))
        for col in range(lo, hi + 1):
            bucket_start = col * span / width
            bucket_end = bucket_start + span / width
            overlap = min(r.end, bucket_end) - max(r.start, bucket_start)
            if overlap > 0:
                busy[r.core][col] += overlap
    bucket = span / width
    lines = []
    for core in cores:
        row = "".join(
            "#" if frac > 0.5 * bucket else ("." if frac > 0 else " ")
            for frac in busy[core]
        )
        lines.append(f"core {core:3d} |{row}|")
    return "\n".join(lines)
