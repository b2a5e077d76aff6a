"""The pointwise turn: cell kernels take turns at the interpreter.

Every cell kernel runs its GEMMs with ``activations.pointwise_turn`` free and
each run of pointwise work between them under it (docs/EXECUTORS.md).  No
test here reads a clock: what the turn does to wall time is the benchmark's
business (docs/PERF.md); its *shape* is checked here — which operations run
under it, that it survives errors and forks, and that the kernels it was
threaded through, with their new operand order and in-place activations,
still compute the same bits.
"""

import functools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.kernels import activations
from repro.kernels.activations import activate_gates_, gate_rows, sigmoid, tanh
from repro.kernels.lstm import lstm_forward_step
from repro.models import cells
from repro.models.spec import CELLS
from repro.serve.engine import InferenceEngine
from tests.conftest import make_batch, small_spec
from tests.serve.test_engine_compile import make_batch as make_serve_batch



def _forward_paths(stacked):
    """Both paths of a stacked forward kernel: ``stacked`` keeps a cache of
    contiguous gates, ``act`` (``need_cache=False``) activates in place."""
    return {"stacked": stacked, "act": functools.partial(stacked, need_cache=False)}


def _chain_of(cell, keep, steps=3):
    """The cell's forward chain body (``*_forward_chain``) over ``steps``
    steps of one repeated input projection, behind the proj kernels'
    signature: returns the ``h`` (and ``c``) blocks and the cache block
    (``None`` unless ``keep``)."""
    chain = getattr(sys.modules[f"repro.kernels.{cell}"], f"{cell}_forward_chain")
    fields = len(cells.CACHE_FIELDS[cell])

    def run(zx, h_prev, *rest):
        *c_prev, W, b = rest
        h = np.empty((steps,) + h_prev.shape, h_prev.dtype)
        c = [np.empty_like(h)] if c_prev else []
        acts = np.empty((steps, fields) + h_prev.shape, h_prev.dtype) if keep else None
        chain(np.stack([zx] * steps), h_prev, *c_prev, W, b, h, *c, acts)
        return (h, *c, acts)

    return run


def _one_step(cell):
    """A one-step call of the chain body, what a tile of one step runs, as a
    hoisted per-step kernel: ``(zx, h_prev[, c_prev], W, b, need_cache=True)``
    to ``(h[, c], cache)``, the cache what the backward proj kernel reads
    after the gradients: the step's slot and ``c_prev`` (GRU: ``h_prev``)."""

    def run(zx, h_prev, *rest, need_cache=True):
        h, *c, acts = _chain_of(cell, need_cache, steps=1)(zx, h_prev, *rest)
        cache = (acts[0], rest[0] if c else h_prev) if need_cache else None
        return (h[0], *(block[0] for block in c), cache)

    return run


#: the hoisted per-step kernels: one-step calls of the chain body
FWD_STEP_PROJ = {cell: _one_step(cell) for cell in CELLS}

TABLES = {
    "fwd": {cell: _forward_paths(fn) for cell, fn in cells._FWD_STEP.items()},
    "bwd": {cell: {"stacked": fn} for cell, fn in cells._BWD_STEP.items()},
    "fwd_proj": {cell: _forward_paths(fn) for cell, fn in FWD_STEP_PROJ.items()},
    "bwd_proj": {cell: {"stacked": fn} for cell, fn in cells._BWD_STEP_PROJ.items()},
    "chain": {cell: {"stacked": _chain_of(cell, True), "act": _chain_of(cell, False)}
              for cell in CELLS},
}

#: every kernel behind ``models/cells.py``'s dispatch tables, on every path
KERNELS = [
    pytest.param(cell, table, fn, id=f"{cell}-{table}-{mode}")
    for cell in CELLS
    for table, by_cell in TABLES.items()
    for mode, fn in by_cell[cell].items()
]


class Operands:
    """Private operands of one cell step, forward and backward, and the
    caches of the stacked forward kernels for the backward ones."""

    def __init__(self, cell, rows=4, hidden=5, input_size=3, dtype=np.float32, seed=0):
        rng = np.random.default_rng(seed)
        draw = lambda *shape: rng.standard_normal(shape).astype(dtype)
        self.cell, self.input_size = cell, input_size
        self.W = draw(input_size + hidden, CELLS[cell].gates * hidden) * dtype(0.3)
        self.b = draw(CELLS[cell].gates * hidden) * dtype(0.1)
        self.x, self.h, self.c = draw(rows, input_size), draw(rows, hidden), draw(rows, hidden)
        self.dh, self.dc = draw(rows, hidden), draw(rows, hidden)
        self.cache = {
            "bwd": self.call("fwd", cells._FWD_STEP[cell])[-1],
            "bwd_proj": self.call("fwd_proj", FWD_STEP_PROJ[cell])[-1],
        }

    def call(self, table, fn, W=None, **swap):
        """``fn`` of dispatch table ``table`` on these operands; ``swap``
        replaces operands by name.  A proj kernel gets the input projection
        for an input; a per-step backward kernel's ``dW``/``db`` accumulators
        are appended to what it returns."""
        ops = {**vars(self), **swap}
        W = self.W if W is None else W
        if table in ("fwd", "fwd_proj", "chain"):  # a chain kernel takes proj's operands
            first = ops["x"] if table == "fwd" else ops["x"] @ self.W[: self.input_size]
            state = (ops["h"], ops["c"]) if self.cell == "lstm" else (ops["h"],)
            return fn(first, *state, W, ops["b"])
        grads = (ops["dh"], ops["dc"]) if self.cell == "lstm" else (ops["dh"],)
        if table == "bwd_proj":
            return fn(*grads, *self.cache[table], W)
        dW, db = np.zeros_like(self.W), np.zeros_like(self.b)
        return (*fn(*grads, self.cache[table], W, dW, db), dW, db)


def _bits(values):
    """The bytes of every array (or ``None``) among a kernel's results."""
    return [
        v if v is None else np.ascontiguousarray(v).tobytes()
        for v in values
        if v is None or isinstance(v, np.ndarray)
    ]


# -- (1) GEMMs outside the turn, pointwise work inside ---------------------------


class CountingTurn:
    """Stand-in for the turn that counts its acquisitions."""

    def __init__(self):
        self.acquired = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc):
        self._lock.release()

    def locked(self):
        return self._lock.locked()


class SpyWeights(np.ndarray):
    """A weight panel that records, at every product it takes part in (``@``
    or ``np.matmul``, into ``out=`` or not), whether the turn is held.
    Slices and transposes share the record."""

    def __array_finalize__(self, obj):
        self.held = getattr(obj, "held", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.held.append(activations.pointwise_turn.locked())
        plain = lambda a: a.view(np.ndarray) if isinstance(a, SpyWeights) else a
        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


@pytest.mark.parametrize("cell, table, fn", KERNELS)
def test_every_product_runs_with_the_turn_free(monkeypatch, cell, table, fn):
    ops = Operands(cell)
    expected = _bits(ops.call(table, fn))
    turn = CountingTurn()
    monkeypatch.setattr(activations, "pointwise_turn", turn)
    W = ops.W.view(SpyWeights)
    W.held = []
    assert _bits(ops.call(table, fn, W=W)) == expected
    assert W.held and not any(W.held)
    assert turn.acquired >= 1 and not turn.locked()


def test_the_turn_is_one_lock_in_one_module():
    assert type(activations.pointwise_turn) is type(threading.Lock())
    assert not activations.pointwise_turn.locked()
    for name in CELLS:
        module = sys.modules[f"repro.kernels.{name}"]
        assert module.activations is activations
        assert not hasattr(module, "pointwise_turn")  # no copy a fork would leave stale


# -- (2) an error inside a stretch leaves the turn free ------------------------


@pytest.mark.parametrize("cell, table, fn", KERNELS)
def test_a_payload_error_inside_the_stretch_releases_the_turn(cell, table, fn):
    ops = Operands(cell)
    if table.startswith("bwd"):
        bad = dict(dh=ops.dh[:, :-1])
    elif cell == "lstm":
        bad = dict(c=ops.c[:, :-1])
    else:
        bad = dict(b=ops.b[:-1])
    with pytest.raises(ValueError, match="broadcast"):
        ops.call(table, fn, **bad)
    assert not activations.pointwise_turn.locked()
    ops.call(table, fn)  # and the next cell gets its turn


# -- (3) whole-buffer activations; nothing retained in inference ---------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("hidden", [1, 7, 32, 128])
@pytest.mark.parametrize("rows", [1, 3, 4, 32])
def test_whole_buffer_activations_are_bitwise_the_per_gate_ones(rows, hidden, dtype):
    rng = np.random.default_rng(rows * 1000 + hidden)
    per_gate = {"s": sigmoid, "t": tanh}
    for gates in ("ssts", "ss"):
        for edge in (None, -0.0, 0.0, np.inf, -np.inf, 88.0, -88.0):
            z = (rng.standard_normal((rows, len(gates) * hidden)) * 4).astype(dtype)
            if edge is not None:
                z[0, ::hidden] = edge  # the first column of every gate's block
            out = activate_gates_(z.copy(), gates, gate_rows(gates, hidden, z.dtype))
            for g, kind in enumerate(gates):
                block = slice(g * hidden, (g + 1) * hidden)
                assert out[:, block].tobytes() == per_gate[kind](z[:, block]).tobytes()
    # tanh(-0.0) stays a negative zero because the tanh columns' shift is -0.0
    zeros = activate_gates_(np.full((1, 4), -0.0, dtype=dtype), "ssts", gate_rows("ssts", 1, dtype))
    assert np.signbit(zeros[0, 2]) and zeros[0, 0] == 0.5


@pytest.mark.parametrize("cell", CELLS)
def test_need_cache_false_returns_no_cache_and_the_same_bits(cell):
    spec = small_spec(cell=cell)
    ops = Operands(cell, hidden=spec.hidden_size, input_size=spec.input_size)
    operands = (ops.x, ops.h, ops.c if cell == "lstm" else None, ops.W, ops.b)
    kept = cells.cell_forward(spec, *operands)
    dropped = cells.cell_forward(spec, *operands, need_cache=False)
    assert kept[2] is not None and dropped[2] is None
    assert _bits(dropped[:2]) == _bits(kept[:2])
    *proj, none = ops.call("fwd_proj", TABLES["fwd_proj"][cell]["act"])
    assert none is None and _bits(proj) == _bits(kept[:2 if cell == "lstm" else 1])


#: ``(rows, input_size, hidden)``: the benchmark's fine shape, three where this
#: host's BLAS computes a column block of ``x @ W_x`` and the product on the
#: block to different bits (docs/TESTING.md), and a single row
PROJECTION_SHAPES = [(4, 39, 32), (4, 512, 256), (7, 512, 128), (32, 512, 32), (1, 39, 128)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("need_cache", [True, False], ids=["cache", "nocache"])
@pytest.mark.parametrize("cell", CELLS)
def test_the_per_step_forward_is_the_proj_forward_on_its_own_projection(cell, need_cache, dtype):
    """Hoisted equals per-step by construction, not by what BLAS does with a
    column slice: one body, so ``h`` (and ``c``) agree bitwise at every shape."""
    per_step = functools.partial(cells._FWD_STEP[cell], need_cache=need_cache)
    proj = functools.partial(FWD_STEP_PROJ[cell], need_cache=need_cache)
    for rows, input_size, hidden in PROJECTION_SHAPES:
        ops = Operands(cell, rows, hidden, input_size, dtype)
        *state, _ = ops.call("fwd", per_step)
        *state_proj, _ = ops.call("fwd_proj", proj)
        assert _bits(state_proj) == _bits(state), (rows, input_size, hidden)


@pytest.mark.parametrize("table", ["fwd", "fwd_proj"])
@pytest.mark.parametrize("cell", CELLS)
def test_what_the_caller_retains_picks_the_activation_path(monkeypatch, cell, table):
    """``need_cache=False`` activates the pre-activation buffer in place and
    returns no cache; ``need_cache=True`` keeps per-gate arrays for the
    backward.  The same ``h`` (and ``c``), bit for bit."""
    ops = Operands(cell)
    whole_buffer = []
    monkeypatch.setattr(
        sys.modules[f"repro.kernels.{cell}"], "activate_gates_",
        lambda z, gates, rows: (whole_buffer.append(gates), activate_gates_(z, gates, rows))[1],
        raising=False,
    )
    *kept, cache = ops.call(table, TABLES[table][cell]["stacked"])
    assert cache is not None and not whole_buffer
    *dropped, none = ops.call(table, TABLES[table][cell]["act"])
    assert none is None and _bits(dropped) == _bits(kept)
    assert whole_buffer == {"lstm": ["ssts"], "gru": ["ss"]}[cell]


# -- (4) the recurrent backward GEMM, weights-left -----------------------------


@pytest.mark.parametrize("rows", [1, 4, 8, 32])
@pytest.mark.parametrize("cell", CELLS)
def test_dh_prev_weights_left_equals_the_old_operand_order(cell, rows):
    """``(W_h·dZ^T)^T`` against ``dZ·W_h^T`` recomputed from the kernel's own
    ``dz``: float32 rtol 1e-6 (the two orders may round differently)."""
    hidden, input_size = 32, 12
    ops = Operands(cell, rows=rows, hidden=hidden, input_size=input_size, seed=rows)
    W_h, (acts, _) = ops.W[input_size:], ops.cache["bwd_proj"]
    dz, dh_prev = ops.call("bwd_proj", cells._BWD_STEP_PROJ[cell])[:2]
    if cell == "gru":
        da = dz[:, 2 * hidden :]
        z, r = acts[:2]
        old = ops.dh * (1.0 - z) + (da @ W_h[:, 2 * hidden :].T) * r
        old += dz[:, : 2 * hidden] @ W_h[:, : 2 * hidden].T
    else:
        old = dz @ W_h.T
    np.testing.assert_allclose(dh_prev, old, rtol=1e-6, atol=1e-6)
    # the per-step kernel takes the same operand order, so the same bits
    per_step = ops.call("bwd", cells._BWD_STEP[cell])
    assert _bits(per_step[1:2]) == _bits([dh_prev])


# -- (5) threads on private data compute the one-thread bits -------------------


def _steps(cell, seed, n_steps=20):
    """``n_steps`` rounds of every kernel of one cell on its own operands."""
    ops = Operands(cell, rows=4, hidden=16, input_size=6, seed=seed)
    return [
        _bits(ops.call(table, fn))
        for _ in range(n_steps)
        for table, by_cell in TABLES.items()
        for fn in by_cell[cell].values()
    ]


@pytest.mark.parametrize("n_threads", [2, 8])
@pytest.mark.parametrize("cell", CELLS)
def test_threads_on_private_data_match_the_one_thread_run(cell, n_threads):
    expected = [_steps(cell, seed) for seed in range(n_threads)]
    results = [None] * n_threads

    def work(k):
        results[k] = _steps(cell, k)

    threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert not activations.pointwise_turn.locked()


# -- a turn held at fork() does not reach the child ----------------------------


def test_a_turn_held_at_fork_is_free_in_the_child():
    """``MultiprocessExecutor.run`` forks per run; a thread of the parent (a
    threaded replica, say) may be inside a pointwise stretch at that instant.
    The child's first cell must not wait for a thread that does not exist."""
    ops = Operands("lstm")
    held = activations.pointwise_turn
    with held:
        pid = os.fork()
        if pid == 0:  # the child: one cell, then out past pytest's teardown
            status = 1
            try:
                lstm_forward_step(ops.x, ops.h, ops.c, ops.W, ops.b)
                status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 10
        done = 0
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:  # stuck on the inherited lock
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0
        assert activations.pointwise_turn is held and held.locked()
    assert not held.locked()


# -- (6) what the engines retain -----------------------------------------------


def _cache_slots(result):
    """Every chunk's per-step cache slots, ``None`` where a layer keeps no
    cache block."""
    return [
        None if acts is None else acts[step, d]
        for state in result.chunks
        for acts in state.acts
        for step in range(result.seq_len)
        for d in range(2)
    ]


@pytest.mark.parametrize("cell", CELLS)
def test_per_step_inference_retains_no_cache_and_training_every_one(cell):
    spec = small_spec(cell=cell)
    x, labels = make_batch(spec)
    engine = BParEngine(spec, config=ExecutionConfig(executor="threaded", n_workers=2, mbs=2))
    engine.forward(x)
    assert engine.last_result.fused_layers == [False] * spec.num_layers
    slots = _cache_slots(engine.last_result)
    assert len(slots) == 2 * 2 * spec.num_layers * x.shape[0]
    assert all(slot is None for slot in slots)
    engine.train_batch(x, labels)
    assert all(slot is not None for slot in _cache_slots(engine.last_result))


def test_a_served_per_step_batch_retains_no_cache():
    spec = small_spec(head="many_to_many", num_layers=2)
    engine = InferenceEngine(
        spec, config=ExecutionConfig(executor="threaded", n_workers=2, mbs=2, compile="on"),
    )
    engine.execute(make_serve_batch(spec, 0, seq_len=4))
    (entry,) = engine.plan_cache._entries.values()
    assert entry.payload.fused_layers == [False, False]
    slots = _cache_slots(entry.payload)
    assert len(slots) == 2 * 2 * 2 * 4 and all(slot is None for slot in slots)
