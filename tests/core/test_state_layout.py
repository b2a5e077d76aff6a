"""Every state slot is a view of its chunk's layer block.

A chunk holds each per-direction slot kind as one ``(T, 2, B, ·)`` block per
layer, its cell caches' fields as one ``(T, 2, F, B, H)`` block and its
merges as one ``(T, B, M)`` block (``repro.core.state``): a task writes its
slots in place and a rebound step allocates no state.  On the threaded
engine — the paired graph on one worker, one task per chain and direction
on two — every ``h``, ``z`` and ``m`` slot a region resolves to
must lie in its layer's block, every cache region must resolve to exactly
the bytes the step's backward reads (its slot of the layer's cache block,
the ``h``/``c`` slots or initial state its forward read and, on an
unhoisted layer, its input row), the blocks must be the same objects on
every rebound step, and those steps must give a fresh build's bits.  The
shapes cover one timestep, an odd length, one row and a chunk count above
the batch (it clamps).  A hoisted training chunk's blocks come
to a fixed byte count: one gate pre-activation block per hoisted layer,
shared by the projection and its gradient.  No clock is read.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, graph_builder
from repro.core.graph_builder import build_brnn_graph
from repro.models.cells import CACHE_FIELDS
from repro.models.params import BRNNParams
from repro.models.spec import CELLS
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.racecheck import byte_bounds
from tests.conftest import make_batch, small_spec
from tests.core.test_rebind import FreshEngine, _assert_same, _step

#: (cell, seq_len, batch, mbs): T=1; odd T at one row with mbs clamped to
#: the batch; two chunks of a mid-size batch
SHAPES = [("lstm", 1, 3, 2), ("gru", 5, 1, 3), ("lstm", 4, 4, 2), ("gru", 3, 2, 4)]

#: region kind -> the chunk blocks its slots are views of
BLOCKS = {"h": ("h", "c"), "z": ("z",), "m": ("merged",)}


def _block_view_kinds(result) -> set:
    """Check that every ``h``/``z``/``m`` region resolves to one
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
    """Check that every ``cache`` region resolves to exactly the bytes of
    its step's ``acts[step, d]`` slot, the ``h``/``c`` slots of the step
    before (the initial state at step 0) and, on an unhoisted layer, its
    input row, the slot one contiguous ``(F, B, H)`` array.  Only training
    builds declare one.  Returns ``{"cache"}`` if any was declared."""
    seen, T = set(), result.seq_len
    for region in result.regions.regions():
        if region.key[0] != "cache":
            continue
        _, mb, layer, direction, step = region.key
        state = result.chunks[mb]
        views = result.region_storage(region.key)
        d = ("fwd", "rev").index(direction)
        slot = state.acts[layer][step, d]
        assert slot.flags.c_contiguous and slot.shape[0] == len(CACHE_FIELDS[state.spec.cell])
        if step:
            before = [b[step - 1, d] for b in (state.h[layer], state.c[layer]) if b is not None]
        else:
            before = [b[d] for b in (state.h0, state.c0) if b is not None]
        row = [] if result.fused_layers[layer] else [state.inputs(layer)[
            step if d == 0 else T - 1 - step]]
        expected = [slot] + before + row
        assert sorted(map(byte_bounds, views)) == sorted(map(byte_bounds, expected)), region.key
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
    expected = {"h", "m"} | ({"z"} if hoist == "on" else set())
    expected |= {"cache"} if training else set()
    blocks = None
    for seed in range(3):
        x, labels = make_batch(spec, seq_len=seq_len, batch=batch, seed=seed)
        _assert_same(_step(rebound, training, x, labels), _step(fresh, training, x, labels))
        result = rebound.last_result
        assert result.paired == (workers == 1)
        assert result.mbs == min(mbs, batch)
        assert _block_view_kinds(result) == expected
        kept = [block for state in result.chunks for name in ("h", "z", "acts", "merged")
                for block in getattr(state, name)]
        if blocks is not None:
            assert all(a is b for a, b in zip(kept, blocks))
        blocks = kept


def _block_bytes(state) -> int:
    """Bytes of every block a chunk holds (its initial state included)."""
    total = 0

    def count(name, block):
        nonlocal total
        total += block.nbytes
        return block

    state.map_blocks(count)
    return total


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("hoist", ["on", [True, False, True]], ids=["all", "two"])
def test_hoisted_training_chunk_holds_one_gate_block_per_hoisted_layer(cell, hoist):
    """The block bytes of a hoisted training chunk, counted kind by kind: a
    layer's projection and its gradient used to be two ``(T, 2, B, G·H)``
    blocks (``zx``, ``dz``); they are one, ``z``."""
    spec = small_spec(cell=cell, head="many_to_many")
    T, B = 5, 3
    x, labels = make_batch(spec, seq_len=T, batch=B)
    result = build_brnn_graph(
        spec, x=x, labels=labels, params=BRNNParams.initialize(spec, 1),
        fused_input_projection=hoist, proj_block=2,
    )
    (state,) = result.chunks
    H, M, C, L = spec.hidden_size, spec.merged_size, spec.num_classes, spec.num_layers
    isz = np.dtype(spec.dtype).itemsize
    chain = T * 2 * B * H * isz  # one (T, 2, B, H) block
    arrays = CELLS[cell].state_arrays  # h (and c)
    per_layer = chain * (2 * arrays + len(CACHE_FIELDS[cell]))  # h/c, dh/dc, acts
    gate_block = CELLS[cell].gates * chain
    hoisted = sum(result.fused_layers)
    assert hoisted == (3 if hoist == "on" else 2)
    rest = (L * per_layer + 2 * (L - 1) * T * B * M * isz  # merged, dmerged
            + T * B * (2 * M + 2 * C) * isz  # the head's four slot blocks
            + arrays * 2 * B * H * isz)  # h0 (and c0)
    two_blocks = rest + 2 * hoisted * gate_block  # zx and dz per hoisted layer
    assert _block_bytes(state) == two_blocks - hoisted * gate_block
