"""Every state slot is a view of its chunk's layer block.

A chunk holds each per-direction slot kind as one ``(T, 2, B, ·)`` block per
layer, its cell caches' fields as one ``(T, 2, F, B, H)`` block and its
merges as one ``(T, B, M)`` block (``repro.core.state``): a task writes its
slots in place and a rebound step allocates no state.  On the threaded
engine — the paired graph on one worker, one task per chain and direction
on two — every ``h``, ``zx``, ``dz`` and ``m`` slot a region resolves to
must lie in its layer's block, every array a cache region resolves to in
the layer's cache block or in the ``h``/``c`` block (or initial state) and
input block the step read, the blocks and cache records must be the same
objects on every rebound step, and those steps must give a fresh build's
bits.  The shapes cover one timestep, an odd length, one row and a chunk
count above the batch (it clamps).  No clock is read.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, graph_builder
from repro.models.cells import CACHE_FIELDS
from repro.models.params import BRNNParams
from repro.runtime.executor import ThreadedExecutor
from tests.conftest import make_batch, small_spec
from tests.core.test_rebind import FreshEngine, _assert_same, _step

#: (cell, seq_len, batch, mbs): T=1; odd T at one row with mbs clamped to
#: the batch; two chunks of a mid-size batch
SHAPES = [("lstm", 1, 3, 2), ("gru", 5, 1, 3), ("lstm", 4, 4, 2), ("gru", 3, 2, 4)]

#: region kind -> the chunk blocks its slots are views of
BLOCKS = {"h": ("h", "c"), "zx": ("zx",), "dz": ("dz",), "m": ("merged",)}


def _block_view_kinds(result) -> set:
    """Check that every ``h``/``zx``/``dz``/``m`` region resolves to one
    slot of its layer block; returns the kinds seen."""
    seen = set()
    for region in result.regions.regions():
        if region.key[0] not in BLOCKS:
            continue
        kind, mb, layer = region.key[:3]
        state = result.chunks[mb]
        blocks = [getattr(state, name)[layer] for name in BLOCKS[kind]]
        blocks = [b for b in blocks if b is not None]
        views = result.region_storage(region.key)
        assert len(views) == len(blocks), region.key
        for view, block in zip(views, blocks):
            assert np.shares_memory(view, block), region.key
            assert view.shape == block.shape[-2:], region.key
        seen.add(kind)
    return seen | _cache_views(result)


def _cache_views(result) -> set:
    """Check that every array a ``cache`` region resolves to lies in the
    layer's cache block, its ``h``/``c`` block or initial state, or its
    input block, and that each field the forward writes is one contiguous
    ``(B, H)`` slot of the cache block; returns ``{"cache"}`` if any did."""
    seen = set()
    for region in result.regions.regions():
        if region.key[0] != "cache":
            continue
        _, mb, layer, d, step = region.key
        state = result.chunks[mb]
        record = state.cache[d][layer][step]
        if record is None:
            assert result.region_storage(region.key) == ()
            continue
        homes = [state.acts[layer], state.h[layer], state.c[layer], state.h0, state.c0,
                 state.inputs(layer)]
        homes = [home for home in homes if home is not None]
        for view in result.region_storage(region.key):
            assert any(np.shares_memory(view, home) for home in homes), region.key
        slot = state.acts[layer][step, ("fwd", "rev").index(d)]
        for k, name in enumerate(CACHE_FIELDS[state.spec.cell]):
            field = getattr(record, name)
            assert field.flags.c_contiguous and np.shares_memory(field, slot[k]), region.key
        seen.add("cache")
    return seen


@pytest.mark.parametrize("hoist", ["off", "on"])
@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cell, seq_len, batch, mbs", SHAPES)
def test_slots_are_views_of_one_block_per_layer(
    monkeypatch, set_proj_block, cell, seq_len, batch, mbs, workers, training, hoist
):
    # two workers plan two threads only above the granularity floor
    monkeypatch.setattr(graph_builder, "MIN_GEMM_FLOPS_PER_CELL_STEP", 0.0)
    set_proj_block(2)
    spec = small_spec(cell=cell, head="many_to_many" if seq_len % 2 else "many_to_one")
    rebound, fresh = (
        cls(spec, BRNNParams.initialize(spec, 1), config=ExecutionConfig(
            executor=ThreadedExecutor(workers), mbs=mbs, fused_input_projection=hoist,
        ))
        for cls in (BParEngine, FreshEngine)
    )
    expected = {"h", "m"} | ({"zx"} if hoist == "on" else set())
    expected |= {"dz"} if hoist == "on" and training else set()
    expected |= {"cache"} if training else set()
    blocks = None
    for seed in range(3):
        x, labels = make_batch(spec, seq_len=seq_len, batch=batch, seed=seed)
        _assert_same(_step(rebound, training, x, labels), _step(fresh, training, x, labels))
        result = rebound.last_result
        assert result.paired == (workers == 1)
        assert result.mbs == min(mbs, batch)
        assert _block_view_kinds(result) == expected
        kept = [block for state in result.chunks for name in ("h", "zx", "dz", "acts", "merged")
                for block in getattr(state, name)]
        kept += [record for state in result.chunks for grid in state.cache.values()
                 for row in grid for record in row]
        if blocks is not None:
            assert all(a is b for a, b in zip(kept, blocks))
        blocks = kept
