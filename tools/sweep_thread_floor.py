"""Sweep behind ``core.graph_builder.MIN_GEMM_FLOPS_PER_CELL_STEP`` and the
granularity policy's one-thread tile.

One forward graph per point (2 layers, 40 steps, one chunk: 202 tasks over
160 cell steps), the hidden size and batch raised together so the GEMM
flops per cell step climb from ~0.07 to ~540 MFLOP.  Each round builds
fresh graphs and runs the per-step one on the calling thread
(``ThreadedExecutor(1)``) and on two real threads (``ThreadedExecutor(2)``
runs a hand-built graph on both), then the chain-tiled ones
(``wavefront_tile`` 2, 4, 8 and T) on the calling thread, rotating which
goes first; the table gives the median of each.  The
constant belongs where ``thr2/thr1`` crosses 1; ``policy`` is what
``plan_granularity`` picks for the point at two workers (threads/tile), and
``vs 1t best`` its median over the fastest tile on one thread: the policy's
tile against the best one where it runs one thread, two threads against
the best one-thread graph where it runs two.  BLAS is pinned to one
thread, as in ``bench/run.py``.

Usage: PYTHONPATH=src python tools/sweep_thread_floor.py [rounds]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import sys
import time

import numpy as np

from repro.core.graph_builder import (
    build_brnn_graph,
    plan_granularity,
    spec_gemm_flops_per_cell_step,
)
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.executor import ThreadedExecutor

#: (hidden size, batch rows) per point; input size = hidden size
POINTS = [(32, 4), (64, 8), (128, 8), (128, 32), (160, 32), (192, 32), (224, 32),
          (256, 32), (256, 64), (512, 64), (512, 128)]
SEQ_LEN = 40
#: cell steps of one graph: 2 layers x 2 directions x T
CELL_STEPS = 2 * 2 * SEQ_LEN
#: the one-thread tile axis
TILES = (1, 2, 4, 8, SEQ_LEN)
#: (threads, tile) of every timed column: per-step on one and two threads,
#: then the tiles on one
COLUMNS = [(1, 1), (2, 1)] + [(1, tile) for tile in TILES[1:]]


def spec_of(hidden: int) -> BRNNSpec:
    return BRNNSpec(cell="lstm", input_size=hidden, hidden_size=hidden, num_layers=2,
                    head="many_to_one", num_classes=11)


def build(hidden: int, batch: int, tile: int = 1):
    spec = spec_of(hidden)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SEQ_LEN, batch, hidden)).astype(np.float32)
    params = BRNNParams.initialize(spec, 0)
    return build_brnn_graph(spec, x=x, params=params, training=False, mbs=1,
                            wavefront_tile=tile).graph


def timed(n_workers: int, graph) -> float:
    t0 = time.perf_counter()
    trace = ThreadedExecutor(n_workers).run(graph)
    elapsed = time.perf_counter() - t0
    if trace.n_cores != n_workers:
        raise RuntimeError(f"asked for {n_workers} threads, ran on {trace.n_cores}")
    return elapsed


def main(rounds: int) -> None:
    policies = {
        (h, b): plan_granularity(spec_of(h), b, SEQ_LEN, False, 2, "threaded")
        for h, b in POINTS
    }
    print(f"host_cores={os.cpu_count()} rounds={rounds} T={SEQ_LEN} L=2 forward")
    tiles = " ".join(f"{f'1t/{t} ms':>9}" for t in TILES[1:])
    print(f"{'H':>5} {'B':>4} {'tasks':>6} {'MFLOP/task':>11} {'MFLOP/step':>11} "
          f"{'thr1 ms':>9} {'thr2 ms':>9} {'thr2/thr1':>10} {tiles} "
          f"{'policy':>7} {'vs 1t best':>11}")
    for hidden, batch in POINTS:
        graph = build(hidden, batch)
        times = {col: [] for col in COLUMNS}
        for i in range(rounds):
            k = i % len(COLUMNS)
            for threads, tile in COLUMNS[k:] + COLUMNS[:k]:
                times[threads, tile].append(timed(threads, build(hidden, batch, tile)))
        med = {col: statistics.median(ts) for col, ts in times.items()}
        per_step = spec_gemm_flops_per_cell_step(
            spec_of(hidden), batch, 1, SEQ_LEN, False, [False, False]
        ) / 1e6
        per_task = per_step * CELL_STEPS / len(graph.tasks)
        plan = policies[hidden, batch]
        chosen = med[plan.threads, plan.tile]
        one, two = med[1, 1], med[2, 1]
        tiled = " ".join(f"{med[1, t] * 1e3:>9.2f}" for t in TILES[1:])
        print(f"{hidden:>5} {batch:>4} {len(graph.tasks):>6} {per_task:>11.2f} "
              f"{per_step:>11.2f} {one * 1e3:>9.2f} {two * 1e3:>9.2f} {two / one:>10.2f} "
              f"{tiled} {f'{plan.threads}t/{plan.tile}':>7} "
              f"{chosen / min(med[1, t] for t in TILES):>11.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
