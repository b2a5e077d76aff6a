"""One parameter stack per layer: ``fwd``/``rev`` are views of it.

A layer's weights are one ``(2, I+H, G·H)`` array and its biases one
``(2, G·H)`` array, whichever way the container was made, and a
``map_storage`` round trip (race checker, process executor) keeps the
views on the mapped stack.  The paired forward reads the stack as it is, so
a warm run allocates less than one direction's weight panel.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.racecheck import TrackedArray, _plain, _wrap, byte_bounds
from tests.conftest import build_functional, small_spec


def _assert_views_of_the_stack(params: BRNNParams) -> None:
    for lp in params.layers:
        assert lp.W.shape[0] == 2 and lp.b.shape[0] == 2
        for d, dp in enumerate((lp.fwd, lp.rev)):
            for view, stack in ((dp.W, lp.W), (dp.b, lp.b)):
                assert byte_bounds(view) == byte_bounds(stack[d])
                assert np.shares_memory(view, stack)


def _saved(params, tmp_path):
    params.save(tmp_path / "p.npz")
    return BRNNParams.load(tmp_path / "p.npz", params.spec)


@pytest.mark.parametrize("make", ["initialize", "zeros_like", "copy", "load"])
def test_directions_are_views_of_one_stack(make, tmp_path):
    spec = small_spec(num_layers=2)
    p = BRNNParams.initialize(spec, seed=3)
    params = {
        "initialize": lambda: p,
        "zeros_like": lambda: BRNNParams.zeros_like(spec),
        "copy": p.copy,
        "load": lambda: _saved(p, tmp_path),
    }[make]()
    _assert_views_of_the_stack(params)
    if make != "zeros_like":
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p.arrays(), params.arrays()))
    lp = params.layers[1]
    lp.W[1, 0, 0] = 5.0
    assert lp.rev.W[0, 0] == 5.0


def test_initialize_draws_each_direction_as_before():
    """The stack holds the draws the per-direction container made: fwd
    then rev per layer, each Glorot over its own ``(I+H, G·H)`` panel."""
    from repro.kernels.initializers import glorot_uniform

    spec = small_spec(num_layers=2)
    rng = np.random.default_rng(4)
    p = BRNNParams.initialize(spec, seed=4)
    for layer, lp in enumerate(p.layers):
        w_shape, _ = spec.cell_param_shapes(layer)
        for dp in (lp.fwd, lp.rev):
            assert np.array_equal(dp.W, glorot_uniform(rng, w_shape, spec.dtype))


def test_checkpoint_with_per_direction_names_loads(tmp_path):
    """The checkpoint format names each direction's array
    (``layer{i}.fwd.W`` ...); such a file loads into the stacks."""
    spec = small_spec(num_layers=2)
    rng = np.random.default_rng(1)
    stored = {}
    for i in range(spec.num_layers):
        w_shape, b_shape = spec.cell_param_shapes(i)
        for d in ("fwd", "rev"):
            stored[f"layer{i}.{d}.W"] = rng.standard_normal(w_shape).astype(spec.dtype)
            stored[f"layer{i}.{d}.b"] = rng.standard_normal(b_shape).astype(spec.dtype)
    stored["head.W"] = np.ones((spec.head_input_size, spec.num_classes), spec.dtype)
    stored["head.b"] = np.ones(spec.num_classes, spec.dtype)
    np.savez(tmp_path / "old.npz", **stored)
    loaded = BRNNParams.load(tmp_path / "old.npz", spec)
    _assert_views_of_the_stack(loaded)
    for i, lp in enumerate(loaded.layers):
        assert np.array_equal(lp.W[1], stored[f"layer{i}.rev.W"])
        assert np.array_equal(lp.b[0], stored[f"layer{i}.fwd.b"])


def test_map_storage_maps_each_stack_once_and_keeps_the_views():
    build = build_functional(training=True, mbs=2)
    everyone = [build.params] + [c.grads for c in build.chunks]
    layers = [lp for params in everyone for lp in params.layers]
    stacks = [byte_bounds(a) for lp in layers for a in (lp.W, lp.b)]
    views = {byte_bounds(a) for lp in layers for dp in (lp.fwd, lp.rev) for a in (dp.W, dp.b)}
    seen = []

    def moved(a):  # what the process executor's arena does: a copy elsewhere
        seen.append(byte_bounds(a))
        return a.copy()

    build.map_storage(moved)
    for params in everyone:
        _assert_views_of_the_stack(params)
    assert all(seen.count(s) == 1 for s in stacks)  # each stack once ...
    assert not views & set(seen)  # ... and never a direction on its own

    build.map_storage(_wrap)
    lp = build.params.layers[0]
    assert isinstance(lp.W, TrackedArray) and isinstance(lp.fwd.W, TrackedArray)
    views = [lp.fwd.W, lp.rev.b]
    build.map_storage(_wrap)  # idempotent: the views are not rebuilt
    assert lp.fwd.W is views[0] and lp.rev.b is views[1]
    build.map_storage(_plain)
    assert type(lp.W) is np.ndarray and type(lp.fwd.W) is np.ndarray
    for params in everyone:
        _assert_views_of_the_stack(params)


@pytest.mark.parametrize("cell", CELL_TYPES)
def test_warm_paired_forward_allocates_less_than_one_weight_panel(cell):
    """A warm one-thread forward at H=128, B=1 runs the paired graph on the
    layer stacks as they are: its allocation peak stays below one
    direction's largest weight panel, which a per-run copy of the stack
    would exceed."""
    spec = BRNNSpec(cell=cell, input_size=39, hidden_size=128, num_layers=2,
                    head="many_to_one", num_classes=11)
    e = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(1)))
    x = np.random.default_rng(0).standard_normal((20, 1, spec.input_size)).astype(spec.dtype)
    e.forward(x)
    assert e.granularity.paired
    tracemalloc.start()
    try:
        e.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    panel = max(lp.fwd.W.nbytes for lp in e.params.layers)
    assert peak < panel, (peak, panel)
