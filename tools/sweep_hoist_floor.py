"""Sweep behind ``core.graph_builder.HOIST_MIN_PANEL_BYTES``.

One 2-layer LSTM per point (input size = hidden size, 32 steps, one chunk),
at every combination of rows per chunk and hidden size, as a forward pass
and as a training step.  Each round runs one step with
``fused_input_projection="off"`` (the per-step graph) and one with ``"on"``
(every layer hoisted) on two engines that share the batch and the weights,
alternating which goes first (``harness.measure.interleaved_step_times``);
the table gives the median of each, their ratio (below 1: hoisting wins) and
the bytes of one direction's weight panel, the quantity ``"auto"`` compares
with ``HOIST_MIN_PANEL_BYTES``; the row counts straddle ``HOIST_MAX_ROWS``.
The constants belong where the ratio leaves the host's noise.  Two worker
threads and BLAS pinned to one thread, as in ``bench/run.py``.

Usage: PYTHONPATH=src python tools/sweep_hoist_floor.py [rounds]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import sys

from repro.config import ExecutionConfig
from repro.harness.measure import interleaved_step_times, make_spec

ROWS = (1, 4, 8, 32, 64, 128, 256)
HIDDEN = (32, 128, 256)
SEQ_LEN = 32


def sweep_point(hidden: int, rows: int, training: bool, rounds: int):
    """Median step seconds ``{"off": ..., "on": ...}`` and the panel bytes."""
    spec = make_spec("lstm", hidden, hidden, 2)
    configs = {
        mode: ExecutionConfig(executor="threaded", n_workers=2, mbs=1,
                              fused_input_projection=mode)
        for mode in ("off", "on")
    }
    samples = interleaved_step_times(
        spec, SEQ_LEN, rows, configs, training=training, iters=rounds, warmup=1
    )
    (rows_w, cols_w), _ = spec.cell_param_shapes(0)
    return {mode: statistics.median(ts) for mode, ts in samples.items()}, rows_w * cols_w * 4


def main(rounds: int) -> None:
    print(f"host_cores={os.cpu_count()} rounds={rounds} T={SEQ_LEN} L=2 lstm I=H "
          f"threaded n_workers=2 mbs=1")
    print(f"{'pass':>7} {'H':>4} {'rows':>5} {'panel KiB':>10} "
          f"{'off ms':>9} {'on ms':>9} {'on/off':>7}")
    for training in (False, True):
        for hidden in HIDDEN:
            for rows in ROWS:
                med, panel = sweep_point(hidden, rows, training, rounds)
                print(f"{'train' if training else 'forward':>7} {hidden:>4} {rows:>5} "
                      f"{panel / 1024:>10.0f} {med['off'] * 1e3:>9.2f} "
                      f"{med['on'] * 1e3:>9.2f} {med['on'] / med['off']:>7.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
