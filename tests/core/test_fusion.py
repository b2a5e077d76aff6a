"""Numerical equivalence and graph structure of chain tiling.

``wavefront_tile`` (how many steps a chain task covers) may not change what
the model computes (docs/PERF.md):

* **forward** — *bitwise identical* at every tile: a tile runs the
  identical per-step kernels in the identical order inside one payload.
* **backward** — bitwise identical to the same-projection per-step graph
  for every tile size and chunking: the tiled payload reads carries as
  ``dh = slot + carry``, the exact addition order of the per-step ``slot +=
  carry; read slot``.

Comparisons hold the projection mode and chunking fixed: projection
hoisting's backward is documented not-bitwise (block ``X^T·dZ``
reassociation), and chunk-gradient summation reassociates across
different ``mbs``.
"""

import numpy as np
import pytest

from repro.analysis.verify import verify_build
from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.reference import reference_loss_and_grads
from repro.models.spec import CELL_TYPES
from tests.conftest import make_batch, small_spec

#: (fused_input_projection, wavefront_tile) — tiles at the extremes (1 =
#: per-step, >T = one tile per chain) with and without hoisting
CASES = [
    ("off", 1),
    ("off", 3),
    ("on", 2),
    ("on", 16),
]


@pytest.fixture(autouse=True)
def two_step_blocks(set_proj_block):
    """Hoisted layers run two-step blocks, so a short sequence spans several."""
    set_proj_block(2)


def engine(spec, proj="off", mbs=1, wavefront_tile=None, seed=3):
    return BParEngine(
        spec,
        params=BRNNParams.initialize(spec, seed=seed),
        config=ExecutionConfig(
            executor="threaded", n_workers=4, mbs=mbs,
            fused_input_projection=proj, wavefront_tile=wavefront_tile,
        ),
    )


def grads_bitwise(a, b):
    return all(
        np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays())
    )


def grads_allclose(a, b, rtol=1e-4, atol=1e-6):
    return all(
        np.allclose(x, y, rtol=rtol, atol=atol)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays())
    )


# -- forward bit-identity ---------------------------------------------------------


@pytest.mark.parametrize("cell", CELL_TYPES)
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
def test_forward_bitwise_all_modes(cell, head):
    spec = small_spec(cell=cell, head=head)
    x, _ = make_batch(spec)
    ref = {proj: engine(spec, proj).forward(x) for proj in ("off", "on")}
    for proj, tile in CASES:
        logits = engine(spec, proj, wavefront_tile=tile).forward(x)
        assert np.array_equal(logits, ref[proj]), (proj, tile)


@pytest.mark.parametrize("mbs", [2, 3])
def test_forward_bitwise_chunked(mbs):
    """Chunking composes: each chunk keeps the per-chunk guarantee."""
    spec = small_spec()
    x, _ = make_batch(spec)
    ref = {proj: engine(spec, proj, mbs=mbs).forward(x) for proj in ("off", "on")}
    for proj, tile in CASES:
        logits = engine(spec, proj, mbs=mbs, wavefront_tile=tile).forward(x)
        assert np.array_equal(logits, ref[proj]), (proj, tile)


def test_forward_bitwise_with_barriers():
    """Tiles compose with the per-layer-barrier graph variant."""
    spec = small_spec()
    x, _ = make_batch(spec)
    base = ExecutionConfig(executor="threaded", n_workers=4, barrier_free=False)
    ref = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3), config=base
    ).forward(x)
    for tile in (1, 2, 6):
        eng = BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3),
            config=base.replace(wavefront_tile=tile),
        )
        assert np.array_equal(eng.forward(x), ref), tile


# -- backward: bitwise vs the same-projection per-step reference ------------------


@pytest.mark.parametrize("cell", CELL_TYPES)
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
def test_grads_bitwise_vs_gates(cell, head):
    spec = small_spec(cell=cell, head=head)
    x, labels = make_batch(spec)
    ref = {proj: engine(spec, proj).loss_and_grads(x, labels) for proj in ("off", "on")}
    for proj, tile in CASES:
        loss, logits, grads = engine(spec, proj, wavefront_tile=tile).loss_and_grads(x, labels)
        ref_loss, ref_logits, ref_grads = ref[proj]
        assert loss == ref_loss, (proj, tile)
        assert np.array_equal(logits, ref_logits), (proj, tile)
        assert grads_bitwise(grads, ref_grads), (proj, tile)


@pytest.mark.parametrize("case", [("off", 2), ("on", 3)])
def test_grads_bitwise_chunked(case):
    """The bitwise-backward guarantee survives data-parallel chunking
    (reference at the *same* mbs — chunk-gradient summation reassociates
    across different chunkings)."""
    proj, tile = case
    spec = small_spec()
    x, labels = make_batch(spec)
    for mbs in (2, 3):
        _, _, ref_grads = engine(spec, proj, mbs=mbs).loss_and_grads(x, labels)
        _, _, grads = engine(spec, proj, mbs=mbs, wavefront_tile=tile).loss_and_grads(x, labels)
        assert grads_bitwise(grads, ref_grads), (proj, mbs)


def test_wavefront_gradcheck_float64():
    """float64 leaves no room: a tiled graph's analytic gradients must agree
    with the (independently gradchecked) sequential reference to near
    machine precision."""
    spec = small_spec(cell="lstm", num_layers=2, dtype=np.float64)
    x, labels = make_batch(spec, seq_len=4, batch=2)
    x = x.astype(np.float64)
    eng = engine(spec, wavefront_tile=2)
    ref_loss, _, ref_grads = reference_loss_and_grads(
        spec, eng.params.copy(), x, labels
    )
    loss, _, grads = eng.loss_and_grads(x, labels)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads_allclose(grads, ref_grads, rtol=1e-9, atol=1e-12)


def test_training_loop_converges_wavefront():
    spec = small_spec(num_layers=2)
    x, labels = make_batch(spec)
    eng = engine(spec, proj="on", wavefront_tile=2)
    first = eng.train_batch(x, labels, lr=0.1)
    for _ in range(8):
        last = eng.train_batch(x, labels, lr=0.1)
    assert last < first


# -- graph structure --------------------------------------------------------------


def test_wavefront_emits_tile_tasks():
    spec = small_spec()
    layered = build_brnn_graph(spec, seq_len=6, batch=4, training=True).graph
    wave = build_brnn_graph(
        spec, seq_len=6, batch=4, training=True, wavefront_tile=3,
    ).graph
    names = [t.name for t in wave]
    assert "fwd[0]L0w0-3" in names and "fwd[0]L0w3-6" in names
    assert "fwdBwd[0]L0w0-3" in names
    # 6 steps -> 2 tiles per chain
    chain = [n for n in names if n.startswith("fwd[0]L0w")]
    assert chain == ["fwd[0]L0w0-3", "fwd[0]L0w3-6"]
    assert build_brnn_graph(spec, seq_len=6, batch=4, wavefront_tile=3).wavefront_tile == 3
    # the tile clamps to the sequence length
    clamped = build_brnn_graph(spec, seq_len=6, batch=4, wavefront_tile=99)
    assert clamped.wavefront_tile == 6
    assert len(wave) < len(layered)
    # tile size 1 degenerates to one task per step, so counts match
    wave1 = build_brnn_graph(
        spec, seq_len=6, batch=4, training=True, wavefront_tile=1,
    )
    assert wave1.wavefront_tile is None
    stamp = lambda graph: [(t.name, sorted(t.meta.items())) for t in graph]
    assert stamp(wave1.graph) == stamp(layered)


@pytest.mark.parametrize("proj,mbs,tile", [("off", 1, 2), ("on", 2, 3), ("on", 1, 8)])
def test_wavefront_graphs_lint_clean(proj, mbs, tile):
    """Tile declarations are exact: the dependence proof, minimality
    included, has zero findings, training and inference."""
    spec = small_spec()
    for training in (False, True):
        result = build_brnn_graph(
            spec, seq_len=6, batch=4, mbs=mbs, training=training, wavefront_tile=tile,
            fused_input_projection=proj, proj_block=2 if proj == "on" else None,
        )
        report = verify_build(result)
        assert report.ok, report.summary()


def test_validation_errors():
    spec = small_spec()
    with pytest.raises(ValueError):
        build_brnn_graph(spec, seq_len=4, batch=4, wavefront_tile=0)
    with pytest.raises(ValueError):
        ExecutionConfig(wavefront_tile=0)
