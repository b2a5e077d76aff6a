"""Sweep behind ``kernels.activations.pointwise_turn`` and the weights-left
recurrent backward GEMM.

Two tables.  The first times one call of the hoisted cell kernels (what the
cell tasks of a training step above the hoist floor run: ``cell_forward_proj``
with a cache, ``cell_backward_proj``) per cell type, pass, rows and hidden
size: alone on one thread; on two threads, each looping over private operands
for the same ``SECONDS``; and on two threads with the turn replaced by a
``nullcontext`` (patched here: the product has no such option), which is the
kernel as it was before the turn.  ``thr2`` over ``thr1`` is what a cell
costs with a second worker beside it; the turn is worth the distance between
the last two columns.  Each round measures the three in alternating order;
the table gives medians.  Every measuring thread pins itself to a core of its
own: left to the OS, two fresh threads can share one vCPU for seconds while
the other idles (``/proc/stat`` shows it), and the sweep would measure that.

Between the tables, the forward step's recurrent GEMM alone on one and on two
threads: the part of a cell that scales.

The second table times every transposed-operand GEMM of the backward kernels
in both operand orders, data-left ``dZ @ W.T`` (as written until PR 20) and
weights-left ``(W @ dZ.T).T``, on one thread.  BLAS is pinned to one thread,
as in ``bench/run.py``.

Usage: PYTHONPATH=src python tools/sweep_pointwise_turn.py [rounds]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import statistics
import sys
import threading
import time
import timeit

import numpy as np

from repro.harness.measure import make_spec
from repro.kernels import activations
from repro.models.cells import cell_backward_proj, cell_forward_proj

CELLS = ("lstm", "gru", "rnn")
ROWS = (4, 32, 128)
HIDDEN = (32, 128, 256)
GEMM_ROWS = (4, 8, 32, 128)
SECONDS = 0.15

#: the backward kernels' transposed-operand GEMMs: name, and the weight
#: block's columns as (first, last) in units of H
GEMMS = (
    ("lstm dh_prev  dZ(B,4H)·W_h^T", 0, 4),
    ("gru  dh_prev  dZ_zr(B,2H)·W_h[:, :2H]^T", 0, 2),
    ("gru  drh      da(B,H)·W_h[:, 2H:]^T", 2, 3),
    ("rnn  dh_prev  da(B,H)·W_h^T", 0, 1),
)


def kernel_call(cell: str, backward: bool, rows: int, hidden: int, seed: int):
    """One hoisted cell step on private operands, as a zero-argument call."""
    spec = make_spec(cell, hidden, hidden, 1)
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    (w_shape, (gh,)) = spec.cell_param_shapes(0)
    W, b = draw(*w_shape) * np.float32(0.1), draw(gh) * np.float32(0.1)
    zx, h = draw(rows, gh), draw(rows, hidden)
    c = draw(rows, hidden) if cell == "lstm" else None
    if not backward:
        return lambda: cell_forward_proj(spec, zx, h, c, W, b)
    cache = cell_forward_proj(spec, zx, h, c, W, b)[2]
    dh, dc = draw(rows, hidden), draw(rows, hidden) if cell == "lstm" else None
    return lambda: cell_backward_proj(spec, dh, dc, cache, W)


def recurrent_gemm_call(rows: int, hidden: int, seed: int):
    """The LSTM forward step's GEMM alone, ``h @ W_h``, on private operands."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((rows, hidden)).astype(np.float32)
    W_h = (rng.standard_normal((hidden, 4 * hidden)) * 0.1).astype(np.float32)
    return lambda: h @ W_h


def per_call_us(calls) -> float:
    """Mean microseconds per call when every call of ``calls`` loops on its
    own thread for ``SECONDS``, all of them at once."""
    stop = []
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


def sweep_kernel(cell: str, backward: bool, rows: int, hidden: int, rounds: int):
    """Median us per call: one thread, two threads, two threads without the turn."""
    calls = [kernel_call(cell, backward, rows, hidden, seed) for seed in (0, 1)]
    turn = activations.pointwise_turn
    settings = {"thr1": (calls[:1], turn), "thr2": (calls, turn),
                "thr2_no_turn": (calls, contextlib.nullcontext())}
    samples = {name: [] for name in settings}
    order = list(settings)
    try:
        for i in range(rounds + 1):  # the first round warms up and is dropped
            for name in order if i % 2 == 0 else reversed(order):
                running, activations.pointwise_turn = settings[name]
                us = per_call_us(running)
                if i:
                    samples[name].append(us)
    finally:
        activations.pointwise_turn = turn
    return {name: statistics.median(us) for name, us in samples.items()}


def gemm_orders_us(hidden: int, rows: int, first: int, last: int):
    """Best-of-5 us of ``dZ @ W.T`` and ``(W @ dZ.T).T`` on a column block of W_h."""
    rng = np.random.default_rng(0)
    W = (rng.standard_normal((hidden, 4 * hidden)) * 0.1).astype(np.float32)
    block = W[:, first * hidden : last * hidden]
    dz = rng.standard_normal((rows, (last - first) * hidden)).astype(np.float32)
    number = 2000 if rows * hidden <= 32 * 256 else 300
    best = lambda fn: min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6
    return best(lambda: dz @ block.T), best(lambda: (block @ dz.T).T)


def main(rounds: int) -> None:
    print(f"host_cores={os.cpu_count()} rounds={rounds} seconds_per_sample={SECONDS} "
          f"hoisted cell kernels, float32, private operands per thread")
    print(f"{'cell':>5} {'pass':>4} {'H':>4} {'rows':>5} {'thr1 us':>9} {'thr2 us':>9} "
          f"{'thr2/thr1':>10} {'no-turn us':>11} {'no-turn/thr1':>13}")
    for cell in CELLS:
        for backward in (False, True):
            for hidden in HIDDEN:
                for rows in ROWS:
                    med = sweep_kernel(cell, backward, rows, hidden, rounds)
                    one, two, bare = med["thr1"], med["thr2"], med["thr2_no_turn"]
                    print(f"{cell:>5} {'bwd' if backward else 'fwd':>4} {hidden:>4} {rows:>5} "
                          f"{one:>9.1f} {two:>9.1f} {two / one:>10.2f} "
                          f"{bare:>11.1f} {bare / one:>13.2f}")
    print()
    for hidden in HIDDEN:  # the part of a cell that scales, for contrast
        calls = [recurrent_gemm_call(32, hidden, seed) for seed in (0, 1)]
        one = statistics.median(per_call_us(calls[:1]) for _ in range(rounds))
        two = statistics.median(per_call_us(calls) for _ in range(rounds))
        print(f"recurrent GEMM h(32,{hidden}) @ W_h({hidden},{4 * hidden}): "
              f"thr1 {one:.1f} us, thr2 {two:.1f} us, thr2/thr1 {two / one:.2f}")
    print()
    print(f"{'GEMM':<42} {'H':>4} {'rows':>5} {'data-left us':>13} "
          f"{'weights-left us':>16} {'ratio':>6}")
    for name, first, last in GEMMS:
        for hidden in HIDDEN:
            for rows in GEMM_ROWS:
                old, new = gemm_orders_us(hidden, rows, first, last)
                print(f"{name:<42} {hidden:>4} {rows:>5} {old:>13.1f} {new:>16.1f} "
                      f"{new / old:>6.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
