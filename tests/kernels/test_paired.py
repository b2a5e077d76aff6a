"""A paired cell step is two single steps, bitwise.

The forward cell at step ``s`` and the reverse cell at step ``s`` run as one
stacked step: operands, weights and bias stacked along a leading axis of two
(the weights ``(2, I+H, G·H)``, the bias ``(2, 1, G·H)``), as the builder
passes them.  Every output, and every field of each direction's cache, must
equal what the single step computes on that direction's operands.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.models.cells import CACHE_FIELDS, cell_forward, cell_forward_chain
from repro.models.spec import CELL_TYPES
from tests.conftest import small_spec


def cell_forward_proj(spec, zx, h_prev, c_prev, W, b, need_cache):
    """One hoisted step, a one-step call of the chain body, as ``(h,
    c_or_None, cache)``, the cache what the step's backward reads by name; a
    pair's cache slot ``(2, F, B, H)`` is laid out as in ``ChunkState.acts``."""
    h = np.empty((1,) + h_prev.shape, h_prev.dtype)
    c = None if c_prev is None else np.empty_like(h)
    fields = h_prev.shape[:-2] + (len(CACHE_FIELDS[spec.cell]),) + h_prev.shape[-2:]
    acts = np.empty((1,) + fields, h.dtype) if need_cache else None
    cell_forward_chain(spec, zx[None], h_prev, c_prev, W, b, h, c, acts)
    cache = SimpleNamespace(h_prev=h_prev, c_prev=c_prev, acts=acts[0]) if need_cache else None
    return h[0], None if c is None else c[0], cache


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


@pytest.mark.parametrize("cell", CELL_TYPES)
@pytest.mark.parametrize("need_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("hoisted", [False, True], ids=["x", "zx"])
def test_paired_step_is_two_single_steps_bitwise(cell, need_cache, rows, hoisted):
    spec, Ws, bs, xs, zxs, hs, cs = _operands(cell, rows, seed=rows)
    stack = lambda arrays: None if arrays[0] is None else np.stack(arrays)
    W2, b2 = np.stack(Ws), np.stack(bs)[:, None]
    step = cell_forward_proj if hoisted else cell_forward
    inputs = zxs if hoisted else xs
    h2, c2, cache2 = step(spec, np.stack(inputs), stack(hs), stack(cs), W2, b2, need_cache)
    assert h2.shape == (2, rows, spec.hidden_size)
    for d in range(2):
        h, c, cache = step(spec, inputs[d], hs[d], cs[d], Ws[d], bs[d], need_cache)
        assert np.array_equal(h2[d], h)
        assert (c2 is None) == (c is None)
        if c is not None:
            assert np.array_equal(c2[d], c)
        assert (cache2 is None) == (not need_cache)
        single, stacked = _fields(cache), _fields(cache2)
        assert set(single) == set(stacked)
        for name, value in single.items():
            assert np.array_equal(stacked[name][d], value), name


@pytest.mark.parametrize("rows", [1, 4])
def test_sliced_stack_multiplies_each_direction_by_its_own_slice(rows):
    """GRU's ``W[..., I:, :2H]``: a row-and-column-sliced view of the stack,
    no copy, and one product that is each direction's 2-D product bitwise."""
    spec, Ws, _, _, _, hs, _ = _operands("gru", rows, seed=rows)
    I, two_h = spec.input_size, 2 * spec.hidden_size
    W2 = np.stack(Ws)
    view = W2[..., I:, :two_h]
    assert view.shape == (2, spec.hidden_size, two_h)
    assert np.shares_memory(view, W2)
    out = np.stack(hs) @ view
    for d in range(2):
        assert np.array_equal(out[d], hs[d] @ Ws[d][I:, :two_h])
