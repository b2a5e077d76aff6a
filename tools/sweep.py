"""The sweeps behind the granularity constants and the kernel levers.

Usage: PYTHONPATH=src python tools/sweep.py TABLE [rounds]

Every table is measured the same way: BLAS pinned to one thread, as in
``bench/run.py``; each round times every column of a point once, in an
order that rotates by one column per round; a cell is the median over the
rounds; one host line heads the table.  The tables (docs/PERF.md has the
recorded ones):

* ``thread-floor`` — behind ``core.graph_builder.MIN_GEMM_FLOPS_PER_CELL_STEP``
  and the policy's tile.  One forward graph per point (2 layers, 40 steps,
  one chunk), hidden size and rows raised together.  Column ``Nt/K`` runs
  the graph tiled ``K`` steps on ``N`` threads, built fresh per sample as
  ``plan_granularity`` builds it at that thread count (paired on one
  thread); ``policy`` is what it picks at two workers and ``vs best`` that
  column's median over the fastest one.  The constant belongs where
  ``2t/T`` leaves ``1t/T`` behind (``2t/1t at T``).
* ``hoist-floor`` — behind ``HOIST_MIN_PANEL_BYTES`` and ``HOIST_MAX_ROWS``.
  A 2-layer LSTM (I = H, 32 steps, one chunk, two workers) per pass, hidden
  size and rows: one step with ``fused_input_projection="off"`` and one
  with ``"on"`` on two engines sharing the batch and the weights; ``policy``
  is what ``"auto"`` hoists and the threads/tile planned for it.
* ``turn`` — behind ``kernels.activations.pointwise_turn``: one hoisted cell
  kernel call alone, beside a second thread looping on private operands,
  and beside it with the turn replaced by a ``nullcontext`` (patched here,
  the product has no such option).  Every measuring thread pins itself to
  a core of its own: left to the OS, two fresh threads can share one vCPU
  for seconds while the other idles.
* ``recurrent-gemm`` — the forward step's recurrent GEMM alone on one and
  two threads: the part of a cell that scales, for contrast.
* ``gemm-order`` — every transposed-operand GEMM of the backward kernels,
  data-left ``dZ @ W.T`` against weights-left ``(W @ dZ.T).T``.
* ``paired`` — one paired cell step (:mod:`repro.kernels.paired`) against
  the two single steps it replaces, with a cache and without.
"""

import os

if __name__ == "__main__":  # before NumPy loads its BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import contextlib
import platform
import statistics
import sys
import threading
import time
import timeit
from typing import Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import (
    build_brnn_graph,
    plan_granularity,
    spec_gemm_flops_per_cell_step,
)
from repro.harness.measure import make_spec
from repro.kernels import activations
from repro.kernels.paired import DirectionPair
from repro.models.cells import cell_backward_proj, cell_forward, cell_forward_proj
from repro.models.params import BRNNParams
from repro.models.spec import CELL_TYPES
from repro.runtime.executor import ThreadedExecutor

FLOOR_SEQ_LEN = 40
FLOOR_TILES = (1, 2, 4, 8, FLOOR_SEQ_LEN)
#: (threads, tile) of every ``thread-floor`` column
FLOOR_COLUMNS = [(threads, tile) for threads in (1, 2) for tile in FLOOR_TILES]
HOIST_SEQ_LEN = 32
#: seconds each thread loops per ``turn``/``recurrent-gemm`` sample
SECONDS = 0.15
#: the backward kernels' transposed-operand GEMMs: name, and the weight
#: block's columns as (first, last) in units of H
GEMMS = (
    ("lstm dh_prev  dZ(B,4H)·W_h^T", 0, 4),
    ("gru  dh_prev  dZ_zr(B,2H)·W_h[:, :2H]^T", 0, 2),
    ("gru  drh      da(B,H)·W_h[:, 2H:]^T", 2, 3),
)


# -- the harness ---------------------------------------------------------------


def medians(columns: Sequence, rounds: int, sample: Callable, warmup: int = 0) -> Dict:
    """Median of ``sample(column)`` per column over ``rounds`` rounds, the
    column order rotating by one each round; ``warmup`` rounds go first and
    are dropped."""
    columns = list(columns)
    samples = {column: [] for column in columns}
    for i in range(warmup + rounds):
        k = i % len(columns)
        for column in columns[k:] + columns[:k]:
            value = sample(column)
            if i >= warmup:
                samples[column].append(value)
    return {column: statistics.median(values) for column, values in samples.items()}


def seconds(call: Callable) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def per_call_us(calls: Sequence[Callable]) -> float:
    """Mean microseconds per call when every call of ``calls`` loops on its
    own thread, pinned to a core of its own, for ``SECONDS``, all at once."""
    stop: List[bool] = []
    counts = [0] * len(calls)
    start = threading.Barrier(len(calls) + 1)
    cores = sorted(os.sched_getaffinity(0))

    def loop(k: int) -> None:
        call, n = calls[k], 0
        os.sched_setaffinity(0, {cores[k % len(cores)]})  # 0: the calling thread
        start.wait()
        while not stop:
            call()
            n += 1
        counts[k] = n

    threads = [threading.Thread(target=loop, args=(k,), daemon=True) for k in range(len(calls))]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    time.sleep(SECONDS)
    stop.append(True)
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return statistics.mean(elapsed / max(1, n) * 1e6 for n in counts)


def timeit_us(call: Callable, number: int) -> float:
    return timeit.timeit(call, number=number) / number * 1e6


def draw(rng, *shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


# -- the tables: one row per point ---------------------------------------------


def thread_floor(point, rounds: int) -> dict:
    hidden, rows = point
    spec = make_spec("lstm", hidden, hidden, 2)
    x = draw(np.random.default_rng(0), FLOOR_SEQ_LEN, rows, hidden)
    params = BRNNParams.initialize(spec, 0)

    def sample(column):
        threads, tile = column
        build = build_brnn_graph(spec, x=x, params=params, training=False, mbs=1,
                                 wavefront_tile=tile, paired=threads == 1)
        executor = ThreadedExecutor(threads)
        return seconds(lambda: executor.run(build.graph))

    med = medians(FLOOR_COLUMNS, rounds, sample)
    plan = plan_granularity(spec, rows, FLOOR_SEQ_LEN, False, 2, "threaded")
    flops = spec_gemm_flops_per_cell_step(spec, rows, 1, FLOOR_SEQ_LEN, False, [False] * 2)
    row = {"H": hidden, "rows": rows, "MFLOP/step": flops / 1e6}
    row.update({f"{t}t/{k} ms": med[t, k] * 1e3 for t, k in FLOOR_COLUMNS})
    row["2t/1t at T"] = med[2, FLOOR_SEQ_LEN] / med[1, FLOOR_SEQ_LEN]
    row["policy"] = f"{plan.threads}t/{plan.tile}"
    row["vs best"] = med[plan.threads, plan.tile] / min(med.values())
    return row


def hoist_floor(point, rounds: int) -> dict:
    training, hidden, rows = point
    spec = make_spec("lstm", hidden, hidden, 2)
    rng = np.random.default_rng(0)
    x = draw(rng, HOIST_SEQ_LEN, rows, hidden)
    labels = rng.integers(0, spec.num_classes, size=rows)
    params = BRNNParams.initialize(spec, 0)
    config = ExecutionConfig(executor="threaded", n_workers=2, mbs=1)
    engines = {
        mode: BParEngine(spec, params=params, config=config.replace(fused_input_projection=mode))
        for mode in ("off", "on")
    }

    def sample(mode):
        engine = engines[mode]
        if training:
            return seconds(lambda: engine.train_batch(x, labels, lr=1e-3))
        return seconds(lambda: engine.forward(x))

    med = medians(engines, rounds, sample, warmup=1)
    plan = plan_granularity(spec, rows, HOIST_SEQ_LEN, training, 2, "threaded", config)
    (panel_rows, panel_cols), _ = spec.cell_param_shapes(0)
    return {
        "pass": "train" if training else "forward", "H": hidden, "rows": rows,
        "panel KiB": panel_rows * panel_cols * 4 // 1024,
        "off ms": med["off"] * 1e3, "on ms": med["on"] * 1e3, "on/off": med["on"] / med["off"],
        "policy": f"{'on' if all(plan.hoisted) else 'off'} {plan.threads}t/{plan.tile}",
    }


def kernel_call(cell: str, backward: bool, rows: int, hidden: int, seed: int):
    """One hoisted cell step on private operands, as a zero-argument call."""
    spec = make_spec(cell, hidden, hidden, 1)
    rng = np.random.default_rng(seed)
    (w_shape, (gh,)) = spec.cell_param_shapes(0)
    W, b = draw(rng, *w_shape, scale=0.1), draw(rng, gh, scale=0.1)
    zx, h = draw(rng, rows, gh), draw(rng, rows, hidden)
    c = draw(rng, rows, hidden) if cell == "lstm" else None
    if not backward:
        return lambda: cell_forward_proj(spec, zx, h, c, W, b)
    cache = cell_forward_proj(spec, zx, h, c, W, b)[2]
    dh, dc = draw(rng, rows, hidden), draw(rng, rows, hidden) if cell == "lstm" else None
    return lambda: cell_backward_proj(spec, dh, dc, cache, W)


def turn(point, rounds: int) -> dict:
    cell, backward, hidden, rows = point
    calls = [kernel_call(cell, backward, rows, hidden, seed) for seed in (0, 1)]
    held = activations.pointwise_turn
    settings = {"thr1": (calls[:1], held), "thr2": (calls, held),
                "no-turn": (calls, contextlib.nullcontext())}

    def sample(name):
        running, activations.pointwise_turn = settings[name]
        try:
            return per_call_us(running)
        finally:
            activations.pointwise_turn = held

    med = medians(settings, rounds, sample, warmup=1)
    return {
        "cell": cell, "pass": "bwd" if backward else "fwd", "H": hidden, "rows": rows,
        "thr1 us": med["thr1"], "thr2 us": med["thr2"], "thr2/thr1": med["thr2"] / med["thr1"],
        "no-turn us": med["no-turn"], "no-turn/thr1": med["no-turn"] / med["thr1"],
    }


def recurrent_gemm(point, rounds: int) -> dict:
    rows, hidden = point
    calls = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        h, W_h = draw(rng, rows, hidden), draw(rng, hidden, 4 * hidden, scale=0.1)
        calls.append(lambda h=h, W_h=W_h: h @ W_h)
    med = medians((1, 2), rounds, lambda n: per_call_us(calls[:n]))
    return {"GEMM": f"h({rows},{hidden}) @ W_h({hidden},{4 * hidden})",
            "thr1 us": med[1], "thr2 us": med[2], "thr2/thr1": med[2] / med[1]}


def gemm_order(point, rounds: int) -> dict:
    (name, first, last), hidden, rows = point
    rng = np.random.default_rng(0)
    block = draw(rng, hidden, 4 * hidden, scale=0.1)[:, first * hidden : last * hidden]
    dz = draw(rng, rows, (last - first) * hidden)
    number = 2000 if rows * hidden <= 32 * 256 else 300
    calls = {"data-left us": lambda: dz @ block.T, "weights-left us": lambda: (block @ dz.T).T}
    med = medians(calls, rounds, lambda order: timeit_us(calls[order], number))
    return {"GEMM": f"{name:<40}", "H": hidden, "rows": rows, **med,
            "ratio": med["weights-left us"] / med["data-left us"]}


def paired(point, rounds: int) -> dict:
    cell, need_cache, hidden, rows = point
    spec = make_spec(cell, hidden, hidden, 1)
    rng = np.random.default_rng(0)
    (w_shape, (gh,)) = spec.cell_param_shapes(0)
    Ws = [draw(rng, *w_shape, scale=0.1) for _ in range(2)]
    bs = [draw(rng, gh, scale=0.1) for _ in range(2)]
    xs, hs = [draw(rng, rows, hidden) for _ in range(2)], [draw(rng, rows, hidden) for _ in range(2)]
    cs = [draw(rng, rows, hidden) for _ in range(2)] if cell == "lstm" else [None, None]
    pair, b2, h2 = DirectionPair(*Ws), np.stack(bs)[:, None], np.stack(hs)
    c2 = np.stack(cs) if cell == "lstm" else None

    def single():
        for d in range(2):
            cell_forward(spec, xs[d], hs[d], cs[d], Ws[d], bs[d], need_cache)

    calls = {"2 single us": single,
             "paired us": lambda: cell_forward(spec, tuple(xs), h2, c2, pair, b2, need_cache)}
    number = 2000 if rows * hidden <= 8 * 32 else 500
    med = medians(calls, rounds, lambda name: timeit_us(calls[name], number))
    return {"cell": cell, "cache": "yes" if need_cache else "no", "H": hidden, "rows": rows,
            **med, "ratio": med["paired us"] / med["2 single us"]}


class Table(NamedTuple):
    row: Callable[[object, int], dict]
    points: list
    rounds: int


TABLES = {
    "thread-floor": Table(thread_floor, [
        (32, 4), (64, 8), (128, 8), (96, 32), (112, 32), (128, 32), (144, 32), (160, 32),
        (192, 32), (224, 32), (256, 32), (256, 64), (512, 64), (512, 128),
    ], 20),
    "hoist-floor": Table(hoist_floor, [
        (training, hidden, rows) for training in (False, True) for hidden in (32, 128, 256)
        for rows in (1, 4, 8, 32, 64, 128, 256)
    ], 9),
    "turn": Table(turn, [
        (cell, backward, hidden, rows) for cell in CELL_TYPES for backward in (False, True)
        for hidden in (32, 128, 256) for rows in (4, 32, 128)
    ], 5),
    "recurrent-gemm": Table(recurrent_gemm, [(32, hidden) for hidden in (32, 128, 256)], 5),
    "gemm-order": Table(gemm_order, [
        (gemm, hidden, rows) for gemm in GEMMS for hidden in (32, 128, 256)
        for rows in (4, 8, 32, 128)
    ], 5),
    "paired": Table(paired, [
        (cell, need_cache, hidden, rows) for cell in CELL_TYPES for need_cache in (False, True)
        for hidden in (32, 128) for rows in (1, 4, 8)
    ], 5),
}


def sweep(name: str, rounds: int, points=None):
    """Measure table ``name``: its host line, then one row per point as it
    is measured; returns the rows."""
    table = TABLES[name]
    print(f"table={name} rounds={rounds} host_cores={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__}", flush=True)
    rows = []
    for point in table.points if points is None else points:
        row = table.row(point, rounds)
        cells = [f"{v:.2f}" if isinstance(v, float) else str(v) for v in row.values()]
        if not rows:
            widths = [max(len(key), len(cell), 7) for key, cell in zip(row, cells)]
            print(" ".join(f"{key:>{w}}" for key, w in zip(row, widths)))
        print(" ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths)), flush=True)
        rows.append(row)
    return rows


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in TABLES:
        sys.exit(f"usage: tools/sweep.py {{{','.join(TABLES)}}} [rounds]")
    sweep(sys.argv[1], int(sys.argv[2]) if len(sys.argv) == 3 else TABLES[sys.argv[1]].rounds)
