"""Property tests: any graph over the block layout computes the oracle's bits.

Hypothesis draws a cell, head and merge mode, a shape down to one timestep
and one row, a chunk count (clamped to the batch), a chain tile, hoisting
and one or two threads (one thread pairs the two directions' forward chains,
as the engines' policy does).  Each chunk of the data-parallel batch is the
sequential oracle's (``repro.models.reference``) run on that chunk, and a
training step reduces the chunks the way the graph does: loss sums added
chunk by chunk, gradients scaled by the whole batch and summed into one
set.  So:

* the forward is bitwise the oracle's logits;
* a training step's loss is bitwise the oracle's, and its gradients too,
  unless its hoisted projection runs blocks of more than one step (then
  one reduction sums the rows the per-step kernel adds as partial
  products, equal to rounding);
* one call of the forward chain body over a tile cut anywhere — one step,
  mid-chain, the reverse chain, the pair — writes the oracle's states and
  cache fields, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph_builder import build_brnn_graph, split_batch
from repro.kernels.losses import softmax_cross_entropy
from repro.kernels.merge import MERGE_MODES
from repro.models.cells import CACHE_FIELDS, cell_forward_chain
from repro.models.params import BRNNParams
from repro.models.reference import reference_backward, reference_forward
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime.executor import ThreadedExecutor


@st.composite
def cases(draw):
    spec = BRNNSpec(
        cell=draw(st.sampled_from(CELL_TYPES)),
        input_size=3,
        hidden_size=4,
        num_layers=2,
        merge_mode=draw(st.sampled_from(MERGE_MODES)),
        head=draw(st.sampled_from(["many_to_one", "many_to_many"])),
        num_classes=3,
        dtype=np.float32,
    )
    seq_len, batch = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(np.float32)
    shape = (batch,) if spec.head == "many_to_one" else (seq_len, batch)
    labels = rng.integers(0, spec.num_classes, size=shape)
    hoisted = draw(st.booleans())
    knobs = dict(
        mbs=min(draw(st.integers(1, 4)), batch),
        wavefront_tile=draw(st.sampled_from([1, 2, 3, 4, None])),
        fused_input_projection="on" if hoisted else "off",
        proj_block=draw(st.sampled_from([1, 3])) if hoisted else None,
    )
    return spec, x, labels, knobs, draw(st.sampled_from([1, 2]))


def _chunked_oracle(spec, params, x, labels, mbs):
    """``(logits, mean loss, gradients)`` of the oracle run chunk by chunk
    and reduced as a data-parallel step is."""
    m2o = spec.head == "many_to_one"
    units = x.shape[1] * (1 if m2o else x.shape[0])
    logits, loss_sums, grads = [], [], BRNNParams.zeros_like(spec)
    for xc, lc in zip(split_batch(x, mbs, 1), split_batch(labels, mbs, 0 if m2o else 1)):
        out, caches = reference_forward(spec, params, xc)
        if m2o:
            loss_sum, dlogits = softmax_cross_entropy(out, lc, grad_scale=1.0 / units)
            sums = [loss_sum]
        else:
            dlogits = np.empty_like(out)
            sums = []
            for t in range(out.shape[0]):
                loss_sum, dlogits[t] = softmax_cross_entropy(out[t], lc[t], grad_scale=1.0 / units)
                sums.append(loss_sum)
        grads.add_scaled_(reference_backward(spec, params, caches, dlogits), 1.0)
        logits.append(out)
        loss_sums.append(sum(sums))
    return np.concatenate(logits, axis=0 if m2o else 1), sum(loss_sums) / units, grads


def _run(spec, params, x, labels, knobs, threads, training):
    build = build_brnn_graph(
        spec, x=x, labels=labels if training else None, params=params, training=training,
        update_weights=False, paired=threads == 1, **knobs,
    )
    ThreadedExecutor(threads).run(build.graph)
    return build


@given(cases())
@settings(max_examples=50, deadline=None)
def test_forward_is_the_oracle(case):
    spec, x, labels, knobs, threads = case
    params = BRNNParams.initialize(spec, seed=0)
    logits, _, _ = _chunked_oracle(spec, params, x, labels, knobs["mbs"])
    build = _run(spec, params, x, labels, knobs, threads, training=False)
    assert np.array_equal(build.logits(), logits)


@given(cases())
@settings(max_examples=50, deadline=None)
def test_training_step_is_the_oracle(case):
    spec, x, labels, knobs, threads = case
    params = BRNNParams.initialize(spec, seed=0)
    logits, loss, grads = _chunked_oracle(spec, params, x, labels, knobs["mbs"])
    build = _run(spec, params, x, labels, knobs, threads, training=True)
    assert np.array_equal(build.logits(), logits)
    assert build.mean_loss() == loss
    if knobs["proj_block"] in (None, 1):
        got = BRNNParams.zeros_like(spec)
        for chunk in build.chunks:
            got.add_scaled_(chunk.grads, 1.0)
        for (name, a), (_, b) in zip(got.arrays(), grads.arrays()):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("need_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("chains", ["fwd", "rev", "pair"])
@pytest.mark.parametrize(
    "lo, hi", [(0, 1), (4, 5), (3, 8), (0, 9)], ids=["K1-first", "K1-mid", "mid-chain", "whole"]
)
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_a_tile_cut_anywhere_is_the_oracle(cell, lo, hi, chains, need_cache):
    spec = BRNNSpec(cell=cell, input_size=3, hidden_size=4, num_layers=1, merge_mode="sum",
                    head="many_to_one", num_classes=3, dtype=np.float32)
    params, (T, B, H) = BRNNParams.initialize(spec, seed=0), (9, 5, spec.hidden_size)
    x = np.random.default_rng(lo * 10 + hi).standard_normal((T, B, 3)).astype(np.float32)
    _, caches = reference_forward(spec, params, x)
    oracle = [(caches.h_f[0], caches.c_f[0], caches.cache_f[0]),
              (caches.h_r[0], caches.c_r[0], caches.cache_r[0])]
    ds = {"fwd": [0], "rev": [1], "pair": [0, 1]}[chains]
    W, b = params.layers[0].W[ds[0] : ds[-1] + 1], params.layers[0].b[ds[0] : ds[-1] + 1, None]
    by_chain = (x[lo:hi], x[T - hi : T - lo][::-1])  # the reverse chain in step order
    zx = np.stack([by_chain[d] for d in ds], axis=1) @ W[..., :3, :]
    zero = np.zeros((B, H), np.float32)
    h_prev = np.stack([oracle[d][0][lo - 1] if lo else zero for d in ds])
    c_prev = np.stack([oracle[d][1][lo - 1] if lo else zero for d in ds]) if cell == "lstm" else None
    h = np.full((hi - lo, len(ds), B, H), np.nan, np.float32)
    c = np.full_like(h, np.nan) if cell == "lstm" else None
    fields = CACHE_FIELDS[cell]
    acts = np.full((hi - lo, len(ds), len(fields), B, H), np.nan, np.float32) if need_cache else None
    cell_forward_chain(spec, zx, h_prev, c_prev, W, b, h, c, acts)
    for k in range(hi - lo):
        for j, d in enumerate(ds):
            h_o, c_o, cache_o = (grid[lo + k] for grid in oracle[d])
            assert h[k, j].tobytes() == h_o.tobytes(), (k, d)
            if c is not None:
                assert c[k, j].tobytes() == c_o.tobytes(), (k, d)
            for f, name in enumerate(fields if need_cache else ()):
                assert acts[k, j, f].tobytes() == cache_o.acts[f].tobytes(), (k, d, name)
