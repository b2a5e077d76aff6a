"""Measurement helpers shared by the bench drivers.

The wall-clock benches (``fusionbench``, ``obs.report``) both
time the same thing — one batch per engine configuration, as inference or
as a training step — so the model builder, the interleaved timing loop and
the sample summary live here once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.trace import percentile


def make_spec(
    cell: str, input_size: int, hidden: int, layers: int, head: str = "many_to_one"
) -> BRNNSpec:
    return BRNNSpec(
        cell=cell, input_size=input_size, hidden_size=hidden,
        num_layers=layers, merge_mode="sum", head=head, num_classes=11,
    )


def summarize_times(samples: Sequence[float]) -> Dict[str, float]:
    """Median/p95/mean/min of a wall-clock sample set, in seconds.

    Same percentile definition as the serving latency collectors
    (:func:`repro.runtime.trace.percentile`).
    """
    xs = list(samples)
    return {
        "median_s": percentile(xs, 50),
        "p95_s": percentile(xs, 95),
        "mean_s": sum(xs) / len(xs),
        "min_s": min(xs),
        "n": len(xs),
    }


def interleaved_step_times(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    configs: Mapping[str, ExecutionConfig],
    *,
    training: bool = False,
    iters: int = 5,
    warmup: int = 1,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Wall-clock samples of one batch per labelled config: an inference
    batch, or under ``training`` one SGD step.

    One engine per config, sharing the batch and the parameters.  Every
    round times each engine once, so host noise and thermal/tenancy drift
    hit every sample set equally and ``samples[a][i]``/``samples[b][i]``
    are a back-to-back pair; the within-round order alternates so no
    config systematically runs first (the first run of a round sees
    colder caches).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(np.float32)
    shape = batch if spec.head == "many_to_one" else (seq_len, batch)
    labels = rng.integers(0, spec.num_classes, size=shape)
    params = BRNNParams.initialize(spec, seed=seed)
    engines = {
        label: BParEngine(spec, params=params, config=config)
        for label, config in configs.items()
    }

    def step(engine: BParEngine):
        return engine.train_batch(x, labels, lr=1e-3) if training else engine.forward(x)

    for _ in range(warmup):
        for engine in engines.values():
            step(engine)
    samples: Dict[str, List[float]] = {label: [] for label in engines}
    order = list(engines)
    for i in range(iters):
        for label in order if i % 2 == 0 else reversed(order):
            t0 = time.perf_counter()
            step(engines[label])
            samples[label].append(time.perf_counter() - t0)
    return samples
