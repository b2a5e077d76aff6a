"""Sweep behind ``runtime.executor.MIN_GEMM_FLOPS_PER_TASK``.

One forward graph per point (2 layers, 40 steps, one chunk), the hidden
size and batch raised together so the mean GEMM flops per task climb from
~0.05 to ~400 MFLOP.  Each round builds two fresh graphs and runs one on the
calling thread (``ThreadedExecutor(1)``) and one on two real threads (the
floor patched to 0), alternating which goes first; the table gives the
median of each and their ratio.  The constant belongs where the ratio
crosses 1.  BLAS is pinned to one thread, as in ``bench/run.py``.

Usage: PYTHONPATH=src python tools/sweep_thread_floor.py [rounds]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import sys
import time

import numpy as np

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime import executor
from repro.runtime.executor import ThreadedExecutor, gemm_flops_per_task

#: (hidden size, batch rows) per point; input size = hidden size
POINTS = [(32, 4), (64, 8), (128, 8), (128, 32), (160, 32), (192, 32), (224, 32),
          (256, 32), (256, 64), (512, 64), (512, 128)]
SEQ_LEN = 40


def build(hidden: int, batch: int):
    spec = BRNNSpec(cell="lstm", input_size=hidden, hidden_size=hidden, num_layers=2,
                    head="many_to_one", num_classes=11)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SEQ_LEN, batch, hidden)).astype(np.float32)
    params = BRNNParams.initialize(spec, 0)
    return build_brnn_graph(spec, x=x, params=params, training=False, mbs=1).graph


def timed(n_workers: int, graph) -> float:
    t0 = time.perf_counter()
    trace = ThreadedExecutor(n_workers).run(graph)
    elapsed = time.perf_counter() - t0
    if trace.n_cores != n_workers:
        raise RuntimeError(f"asked for {n_workers} threads, ran on {trace.n_cores}")
    return elapsed


def main(rounds: int) -> None:
    executor.MIN_GEMM_FLOPS_PER_TASK = 0.0  # two workers means two threads here
    print(f"host_cores={os.cpu_count()} rounds={rounds} T={SEQ_LEN} L=2 forward")
    print(f"{'H':>5} {'B':>4} {'tasks':>6} {'MFLOP/task':>11} "
          f"{'thr1 ms':>9} {'thr2 ms':>9} {'thr2/thr1':>10}")
    for hidden, batch in POINTS:
        graph = build(hidden, batch)
        times = {1: [], 2: []}
        for i in range(rounds):
            for n in (1, 2) if i % 2 == 0 else (2, 1):
                times[n].append(timed(n, build(hidden, batch)))
        one, two = statistics.median(times[1]), statistics.median(times[2])
        mflop = gemm_flops_per_task(graph) / 1e6
        print(f"{hidden:>5} {batch:>4} {len(graph.tasks):>6} {mflop:>11.2f} "
              f"{one * 1e3:>9.2f} {two * 1e3:>9.2f} {two / one:>10.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
