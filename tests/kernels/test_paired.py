"""A paired cell step is two single steps, bitwise.

The forward cell at step ``s`` and the reverse cell at step ``s`` run as one
stacked step: operands stacked along a leading axis of two (the inputs of a
per-step kernel as a pair of arrays, as the builder passes them), the weights
a :class:`~repro.kernels.paired.DirectionPair`, the bias stacked
``(2, 1, G·H)``.
Every output, and every field of each direction's cache, must equal what the
single step computes on that direction's operands.
"""

import numpy as np
import pytest

from repro.kernels.paired import DirectionPair
from repro.models.cells import cell_forward, cell_forward_proj
from tests.conftest import small_spec


def _operands(cell, rows, seed):
    spec = small_spec(cell=cell, input_size=7, hidden_size=6)
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    (w_shape, (gh,)) = spec.cell_param_shapes(0)
    Ws = [draw(*w_shape) * np.float32(0.3) for _ in range(2)]
    bs = [draw(gh) * np.float32(0.3) for _ in range(2)]
    xs = [draw(rows, spec.input_size) for _ in range(2)]
    zxs = [draw(rows, gh) for _ in range(2)]
    hs = [draw(rows, spec.hidden_size) for _ in range(2)]
    cs = [draw(rows, spec.hidden_size) for _ in range(2)] if cell == "lstm" else [None, None]
    return spec, Ws, bs, xs, zxs, hs, cs


def _fields(cache):
    return {} if cache is None else {k: v for k, v in vars(cache).items() if v is not None}


@pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
@pytest.mark.parametrize("need_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("hoisted", [False, True], ids=["x", "zx"])
def test_paired_step_is_two_single_steps_bitwise(cell, need_cache, rows, hoisted):
    spec, Ws, bs, xs, zxs, hs, cs = _operands(cell, rows, seed=rows)
    stack = lambda arrays: None if arrays[0] is None else np.stack(arrays)
    pair, b2 = DirectionPair(*Ws), np.stack(bs)[:, None]
    if hoisted:
        paired = cell_forward_proj(spec, stack(zxs), stack(hs), stack(cs), pair, b2, need_cache)
    else:
        paired = cell_forward(spec, tuple(xs), stack(hs), stack(cs), pair, b2, need_cache)
    h2, c2, cache2 = paired
    assert h2.shape == (2, rows, spec.hidden_size)
    for d in range(2):
        if hoisted:
            h, c, cache = cell_forward_proj(spec, zxs[d], hs[d], cs[d], Ws[d], bs[d], need_cache)
        else:
            h, c, cache = cell_forward(spec, xs[d], hs[d], cs[d], Ws[d], bs[d], need_cache)
        assert np.array_equal(h2[d], h)
        assert (c2 is None) == (c is None)
        if c is not None:
            assert np.array_equal(c2[d], c)
        assert (cache2 is None) == (not need_cache)
        single, stacked = _fields(cache), _fields(cache2)
        assert set(single) == set(stacked)
        for name, value in single.items():
            assert np.array_equal(stacked[name][d], value), name


def test_pair_slices_both_directions_and_keeps_the_weights():
    Wf, Wr = np.arange(12.0).reshape(3, 4), -np.arange(12.0).reshape(3, 4)
    pair = DirectionPair(Wf, Wr)[1:, 2:]
    assert pair.shape == (2, 2)
    assert all(np.shares_memory(w, src) for w, src in zip(pair.arrays, (Wf, Wr)))
    a = np.ones((2, 5, 2))
    out = a @ pair
    assert out.shape == (2, 5, 2)
    assert np.array_equal(out[0], a[0] @ Wf[1:, 2:])
    assert np.array_equal(out[1], a[1] @ Wr[1:, 2:])
