"""Multiprocess-vs-threaded executor benchmark (docs/EXECUTORS.md).

Times identical inference batches on the threaded executor and the
multiprocess executor, interleaved round-robin so host noise hits both
substrates equally, over two regimes:

* ``gil_bound`` — the per-gate reference kernels (``fusion="off"``): per-
  gate GEMMs with separate pointwise activation passes.  The small
  pointwise tasks hold the GIL, so threaded workers serialise — the
  regime the process executor exists for.  On a multi-core host the
  process executor must clear **1.3×** the threaded median here.
* ``default`` — the stacked-gate default (``fusion="gates"``): large
  GEMMs that release the GIL, so threads already overlap.  The process
  executor's transport overhead must cost at most 10 % (**≥0.9×**
  threaded).

Both bars are rows of :mod:`repro.harness.ledger`, enforced **only when
the recording host had ≥2 cores** (``results.host_cores``); a speed-up
from true parallelism is physically unmeasurable on one core, so
single-core recordings are gated on schema, bitwise equivalence and the
zero-leak invariant instead.

Every run also records:

* ``bitwise_identical`` — the two substrates' logits compared bitwise
  (the conformance claim re-checked at paper scale);
* ``leaked_segments`` — ``/dev/shm`` entries with the arena prefix that
  survived the run (must be 0: the crash-safe cleanup epilogue is part of
  the perf contract, not just the fault tests).

``python -m repro bench multiproc`` drives :func:`run_multiproc_bench`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.config import ExecutionConfig
from repro.harness.measure import (
    interleaved_step_times,
    make_spec,
    summarize_times,
)
from repro.runtime.shm import list_segments

#: the two contrasted regimes: (name, fusion, fused_input_projection)
REGIMES = (
    ("gil_bound", "off", "off"),
    ("default", "gates", "off"),
)


def run_multiproc_bench(
    cell: str = "lstm",
    input_size: int = 1024,
    hidden: int = 128,
    layers: int = 2,
    seq_len: int = 100,
    batch: int = 32,
    head: str = "many_to_one",
    *,
    mbs: int = 4,
    iters: int = 5,
    warmup: int = 1,
    n_workers: Optional[int] = None,
    seed: int = 0,
) -> Dict:
    """One full comparison point over both regimes, as
    ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers, head)
    segments_before = list_segments()
    regimes: Dict[str, Dict] = {}
    bitwise = True
    for name, fusion, proj in REGIMES:
        samples, logits = interleaved_step_times(
            spec, seq_len, batch,
            {
                substrate: ExecutionConfig(
                    executor=substrate, n_workers=n_workers, mbs=mbs,
                    fusion=fusion, fused_input_projection=proj,
                )
                for substrate in ("threaded", "process")
            },
            iters=iters, warmup=warmup, seed=seed,
        )
        same_bits = logits["threaded"].tobytes() == logits["process"].tobytes()
        bitwise = bitwise and same_bits
        threaded = summarize_times(samples["threaded"])
        process = summarize_times(samples["process"])
        regimes[name] = {
            "threaded": threaded,
            "process": process,
            "speedup_median": threaded["median_s"] / process["median_s"],
            "bitwise_identical": same_bits,
        }
    leaked = [s for s in list_segments() if s not in segments_before]
    return {
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "head": head, "mbs": mbs, "iters": iters, "warmup": warmup,
            "seed": seed, "n_workers": n_workers,
            "regimes": [list(r) for r in REGIMES],
        },
        "results": {
            "regimes": regimes,
            "bitwise_identical": bitwise,
            "leaked_segments": len(leaked),
            "host_cores": os.cpu_count() or 1,
        },
    }
