"""Warmup shape enumeration for per-shape compiled-plan caches.

A serving deployment knows, ahead of any traffic, which batch shapes it
will execute: the batcher pads every request to a length bucket and cuts
batches no larger than ``max_batch_size``, so the reachable shape space
is (bucket, batch size) pairs.  ``plan_warmup_shapes`` enumerates the
shapes worth pre-compiling — the full-batch shape per observed bucket,
which is the shape the size trigger cuts under sustained load — so the
fleet can populate its :class:`~repro.compile.cache.PlanCache` before
the first request instead of paying compilation on the hot path
(``InferenceEngine.warmup``, docs/SERVING.md).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.data.batching import padded_length


def length_buckets(seq_lens: Iterable[int], bucket_width: int) -> List[int]:
    """Distinct padded lengths (ascending) covering ``seq_lens``."""
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    return sorted({padded_length(s, bucket_width) for s in seq_lens})


def plan_warmup_shapes(
    seq_lens: Iterable[int],
    bucket_width: int,
    max_batch_size: int,
    batch_sizes: Sequence[int] = (),
) -> List[Tuple[int, int]]:
    """``(padded_len, batch_size)`` shapes to pre-compile for a workload.

    By default one shape per bucket at ``max_batch_size`` (what the size
    trigger cuts at steady state); pass extra ``batch_sizes`` to also warm
    partial-batch shapes (e.g. tail batches under drain).
    """
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be >= 1")
    sizes = sorted({max_batch_size, *batch_sizes})
    for size in sizes:
        if not 1 <= size <= max_batch_size:
            raise ValueError(f"batch size {size} outside [1, {max_batch_size}]")
    return [
        (bucket, size)
        for bucket in length_buckets(seq_lens, bucket_width)
        for size in sizes
    ]
