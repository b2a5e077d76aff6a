"""Batching utilities: padding, length bucketing, batch iteration.

§III-B: "For variable sequence length in between batches, B-Par adjusts the
computation graph dynamically on run-time."  These helpers produce batches
of homogeneous (padded) length; the engines rebuild the task graph per
batch, so consecutive batches may have different sequence lengths.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


def pad_sequences(
    sequences: Sequence[np.ndarray], length: int = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-pad variable-length ``(T_i, F)`` sequences to ``(T, B, F)``.

    Returns the padded tensor and the original lengths.  Every sequence must
    be 2-D with the same feature width, and an explicit ``length`` must cover
    the longest sequence — padding never silently truncates data; crop inputs
    explicitly if that is what you want.
    """
    if not sequences:
        raise ValueError("no sequences to pad")
    for i, s in enumerate(sequences):
        if getattr(s, "ndim", None) != 2:
            raise ValueError(
                f"sequence {i} must be a 2-D (T, F) array, got shape "
                f"{getattr(s, 'shape', None)}; reshape 1-D sequences to (T, 1)"
            )
    features = sequences[0].shape[1]
    for i, s in enumerate(sequences):
        if s.shape[1] != features:
            raise ValueError(
                f"sequence {i} has {s.shape[1]} features, expected {features} "
                f"(all sequences in a batch must share one feature width)"
            )
    lengths = np.asarray([s.shape[0] for s in sequences])
    longest = int(lengths.max())
    if length is None:
        length = longest
    elif length < longest:
        raise ValueError(
            f"length={length} is shorter than the longest sequence ({longest} "
            f"frames); pad_sequences never truncates"
        )
    batch = len(sequences)
    out = np.zeros((length, batch, features), dtype=sequences[0].dtype)
    for i, s in enumerate(sequences):
        out[: s.shape[0], i, :] = s
    return out, lengths


def padded_length(length: int, bucket_width: int) -> int:
    """``length`` rounded up to a multiple of ``bucket_width``: the padded
    length of its bucket."""
    return -(-length // bucket_width) * bucket_width


def bucket_by_length(
    sequences: Sequence[np.ndarray],
    labels: np.ndarray,
    bucket_width: int = 10,
) -> Dict[int, Tuple[List[np.ndarray], List]]:
    """Group sequences into buckets of similar length.

    Padding waste inside a bucket is at most ``bucket_width - 1`` frames per
    sequence; each bucket becomes one or more homogeneous batches.
    """
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    buckets: Dict[int, Tuple[List[np.ndarray], List]] = {}
    for seq, label in zip(sequences, labels):
        key = padded_length(seq.shape[0], bucket_width)
        buckets.setdefault(key, ([], []))
        buckets[key][0].append(seq)
        buckets[key][1].append(label)
    return buckets


def iterate_batches(
    sequences: Sequence[np.ndarray],
    labels: np.ndarray,
    batch_size: int,
    bucket_width: int = 10,
    drop_last: bool = False,
    seed: int = 0,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield padded ``(x (T, B, F), labels (B,))`` batches, bucketed by length.

    Batch order and within-bucket order are shuffled deterministically.
    """
    rng = np.random.default_rng(seed)
    buckets = bucket_by_length(sequences, labels, bucket_width)
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    for key in sorted(buckets):
        seqs, labs = buckets[key]
        order = rng.permutation(len(seqs))
        for start in range(0, len(seqs), batch_size):
            idx = order[start : start + batch_size]
            if len(idx) < batch_size and drop_last:
                continue
            x, _ = pad_sequences([seqs[i] for i in idx], length=key)
            y = np.asarray([labs[i] for i in idx])
            pending.append((x, y))
    for i in rng.permutation(len(pending)):
        yield pending[i]
