"""Numerical equivalence of the fused input-projection path.

The fused path hoists ``X_t @ W_x`` into sequence-level block GEMMs.  Its
contract, verified here against the sequential oracle:

* **forward** — *bitwise identical* with ``mbs=1`` for any ``proj_block``:
  a multi-row stacked GEMM produces bitwise the same rows as the per-step
  GEMMs, column slices of a GEMM equal the narrower GEMM, and the cell
  consumes the precomputed rows through the identical ``z += …`` addition
  order as the per-step kernel.  (``B=1`` chunks fall back to per-step
  matvecs inside :func:`~repro.models.cells.cell_input_projection` — NumPy
  dispatches single-row matmuls differently — so the guarantee holds there
  too.)
* **backward** — gradcheck-exact; *bitwise* at ``proj_block=1`` with
  ``mbs=1``, where a block is the per-step backward, and to rounding over
  longer blocks: only ``dh_prev`` stays on the cell chain, and the
  per-block ``dW += [X | H_prev]^T·dZ`` GEMM legitimately reassociates the
  per-step sum (float32: within rtol 1e-5 of the per-step graph).
  ``"off"`` restores the oracle's bits.
* **cost model** — the flop-weighted critical path strictly shrinks: only
  the ``(B,H)`` recurrent half of each cell GEMM remains on the chain.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import (
    HOIST_MAX_ROWS,
    HOIST_MIN_PANEL_BYTES,
    build_brnn_graph,
    plan_granularity,
)
from repro.models.params import BRNNParams
from repro.models.reference import reference_forward, reference_loss_and_grads
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime import ThreadedExecutor
from tests.conftest import make_batch, small_spec

PROJ_BLOCKS = [1, 4, None]  # None -> DEFAULT_PROJ_BLOCK (clamped to T)

#: the three model shapes of bench/workloads.py
_GEMM = BRNNSpec(cell="lstm", input_size=128, hidden_size=256, num_layers=3,
                 head="many_to_one", num_classes=11)
_FINE = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4,
                 head="many_to_one", num_classes=11)
_SERVED = BRNNSpec(cell="lstm", input_size=39, hidden_size=128, num_layers=2,
                   head="many_to_one", num_classes=11)


def oracle(spec, x, labels, seed=3):
    params = BRNNParams.initialize(spec, seed=seed)
    return reference_loss_and_grads(spec, params.copy(), x, labels)


def fused_engine(spec, mbs=1, mode="on", seed=3):
    return BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=seed),
        config=ExecutionConfig(
            executor=ThreadedExecutor(4), mbs=mbs, fused_input_projection=mode
        ),
    )


def hoist_rule(spec, mode, rows):
    """The policy's per-layer hoist decision for one chunk of ``rows``."""
    config = ExecutionConfig(fused_input_projection=mode)
    return plan_granularity(spec, rows, 8, False, 1, "sim", config).hoisted


def grads_allclose(a, b, rtol=1e-4, atol=1e-6):
    return all(
        np.allclose(x, y, rtol=rtol, atol=atol)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays())
    )


# -- forward bit-identity ---------------------------------------------------------


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("proj_block", PROJ_BLOCKS)
def test_forward_bitwise_mbs1(cell, head, proj_block, set_proj_block):
    set_proj_block(proj_block)
    spec = small_spec(cell=cell, head=head)
    x, labels = make_batch(spec)
    _, ref_logits, _ = oracle(spec, x, labels)
    logits = fused_engine(spec).forward(x)
    assert np.array_equal(logits, ref_logits)


@pytest.mark.parametrize("proj_block", [1, 5])  # 5 == T: one block per direction
def test_forward_bitwise_proj_block_extremes(proj_block, set_proj_block):
    set_proj_block(proj_block)
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, _ = oracle(spec, x, labels)
    logits = fused_engine(spec).forward(x)
    assert np.array_equal(logits, ref_logits)


@pytest.mark.parametrize("mbs", [2, 3])
def test_forward_chunked_matches_per_step(mbs, set_proj_block):
    """With mbs>1 each chunk keeps the per-chunk bitwise guarantee."""
    spec = small_spec()
    x, labels = make_batch(spec)
    per_step = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(4), mbs=mbs),
    ).forward(x)
    set_proj_block(2)
    fused = fused_engine(spec, mbs=mbs).forward(x)
    assert np.array_equal(fused, per_step)


def test_forward_bitwise_batch1_chunk():
    """B=1 chunks take the matvec fallback and stay bitwise."""
    spec = small_spec()
    x, labels = make_batch(spec, batch=1)
    _, ref_logits, _ = oracle(spec, x, labels)
    logits = fused_engine(spec).forward(x)
    assert np.array_equal(logits, ref_logits)

    # mbs > batch clamps; batch=3, mbs=3 -> three single-row chunks
    x3, labels3 = make_batch(spec, batch=3)
    _, ref3, _ = oracle(spec, x3, labels3)
    assert np.array_equal(fused_engine(spec, mbs=3).forward(x3), ref3)


def test_auto_mode_forward_bitwise():
    # layer 0's panel is (384+128)·4·128·4 B = 1 MiB, exactly the floor, and
    # hoists under auto; layer 1 sees the merged width 128 (512 KiB), does not
    spec = small_spec(input_size=384, hidden_size=128, num_layers=2)
    x, labels = make_batch(spec)
    assert hoist_rule(spec, "auto", x.shape[1]) == [True, False]
    _, ref_logits, _ = oracle(spec, x, labels)
    engine = fused_engine(spec, mode="auto")
    assert np.array_equal(engine.forward(x), ref_logits)
    assert engine.last_result.fused_layers == [True, False]


# -- backward: gradcheck-exact, allclose to the oracle ----------------------------


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
def test_backward_allclose_oracle(cell, head, set_proj_block):
    set_proj_block(2)
    spec = small_spec(cell=cell, head=head)
    x, labels = make_batch(spec)
    ref_loss, ref_logits, ref_grads = oracle(spec, x, labels)
    loss, logits, grads = fused_engine(spec).loss_and_grads(x, labels)
    assert loss == pytest.approx(ref_loss, rel=1e-6)
    assert np.array_equal(logits, ref_logits)  # forward stays bitwise
    assert grads_allclose(grads, ref_grads)


@pytest.mark.parametrize("mbs", [2, 3])
@pytest.mark.parametrize("proj_block", PROJ_BLOCKS)
def test_backward_allclose_chunked(mbs, proj_block, set_proj_block):
    set_proj_block(proj_block)
    spec = small_spec()
    x, labels = make_batch(spec)
    ref_loss, _, ref_grads = oracle(spec, x, labels)
    loss, _, grads = fused_engine(spec, mbs=mbs).loss_and_grads(x, labels)
    assert loss == pytest.approx(ref_loss, rel=1e-5)
    assert grads_allclose(grads, ref_grads)


def test_fused_gradcheck(set_proj_block):
    """Central differences of the fused engine's own loss, in float64."""
    spec = small_spec(
        cell="lstm", input_size=5, hidden_size=4, num_layers=2, dtype=np.float64
    )
    x, labels = make_batch(spec, seq_len=4, batch=2)
    x = x.astype(np.float64)
    set_proj_block(2)
    engine = fused_engine(spec)
    _, _, grads = engine.loss_and_grads(x, labels)
    grad_by_name = dict(grads.arrays())

    eps = 1e-5
    rng = np.random.default_rng(17)
    for name, array in engine.params.arrays():
        flat = array.reshape(-1)
        gflat = grad_by_name[name].reshape(-1)
        idx = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        numeric, analytic = [], []
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _, _ = engine.loss_and_grads(x, labels)
            flat[i] = orig - eps
            lm, _, _ = engine.loss_and_grads(x, labels)
            flat[i] = orig
            numeric.append((lp - lm) / (2 * eps))
            analytic.append(gflat[i])
        numeric, analytic = np.array(numeric), np.array(analytic)
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-10)
        err = np.linalg.norm(numeric - analytic) / denom
        assert err < 1e-3, (name, err)


def test_fused_gru_gradcheck(set_proj_block):
    spec = small_spec(cell="gru", num_layers=2, dtype=np.float64)
    x, labels = make_batch(spec, seq_len=4, batch=2)
    x = x.astype(np.float64)
    set_proj_block(3)
    engine = fused_engine(spec)
    ref_loss, _, ref_grads = reference_loss_and_grads(
        spec, engine.params.copy(), x, labels
    )
    loss, _, grads = engine.loss_and_grads(x, labels)
    # float64 leaves no room: the fused analytic gradients must agree with
    # the (independently gradchecked) reference to near machine precision
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads_allclose(grads, ref_grads, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("proj_block", [1, 2, 4], ids=["pb1", "pb2", "ragged"])
@pytest.mark.parametrize("mbs", [1, 2])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_hoisted_training_matches_per_step_graph(
    cell, head, mbs, proj_block, set_proj_block
):
    """Float32, T=6 (block 4 leaves a ragged block of 2): gradients of the
    hoisted graph against the per-step graph's, then two SGD steps.  A
    block of one step is the per-step backward, so on one chunk at
    ``proj_block=1`` the gradients are the oracle's bits."""
    set_proj_block(proj_block)
    spec = small_spec(cell=cell, head=head, num_layers=2)
    x, labels = make_batch(spec, seq_len=6)

    def engine(mode):
        return BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3),
            config=ExecutionConfig(
                executor=ThreadedExecutor(2), mbs=mbs, fused_input_projection=mode
            ),
        )

    per_step, hoisted = engine("off"), engine("on")
    ref_loss, ref_logits, ref_grads = per_step.loss_and_grads(x, labels)
    loss, logits, grads = hoisted.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    assert loss == ref_loss
    assert grads_allclose(grads, ref_grads, rtol=1e-5, atol=1e-7)
    if proj_block == 1 and mbs == 1:
        for (name, got), (_, want) in zip(grads.arrays(), oracle(spec, x, labels)[2].arrays()):
            assert np.array_equal(got, want), name
    for _ in range(2):
        per_step.train_batch(x, labels, lr=0.1)
        hoisted.train_batch(x, labels, lr=0.1)
    assert grads_allclose(hoisted.params, per_step.params, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_hoisted_float64_matches_reference(cell, head, set_proj_block):
    """Float64 leaves no room: the hoisted analytic gradients must agree
    with the (independently gradchecked) reference to near machine
    precision, over a ragged blocking and two chunks."""
    spec = small_spec(cell=cell, head=head, num_layers=2, dtype=np.float64)
    x, labels = make_batch(spec, seq_len=5, batch=4)
    x = x.astype(np.float64)
    set_proj_block(3)
    engine = fused_engine(spec, mbs=2)
    ref_loss, _, ref_grads = reference_loss_and_grads(
        spec, engine.params.copy(), x, labels
    )
    loss, _, grads = engine.loss_and_grads(x, labels)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads_allclose(grads, ref_grads, rtol=1e-9, atol=1e-12)


def test_off_is_bitwise_against_the_oracle_above_the_floor():
    """Where ``auto`` hoists, ``"off"`` is what restores the per-step graph:
    forward *and* gradients bitwise equal to the sequential oracle."""
    spec = small_spec(input_size=384, hidden_size=128, num_layers=2)
    x, labels = make_batch(spec, seq_len=3, batch=4)
    ref_loss, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = fused_engine(spec, mode="off")
    loss, logits, grads = engine.loss_and_grads(x, labels)
    assert engine.last_result.fused_layers == [False, False]
    assert loss == ref_loss and np.array_equal(logits, ref_logits)
    for (name, got), (_, want) in zip(grads.arrays(), ref_grads.arrays()):
        assert np.array_equal(got, want), name
    default = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    assert np.array_equal(default.loss_and_grads(x, labels)[1], ref_logits)
    assert default.last_result.fused_layers == [True, False]


@pytest.mark.parametrize("spec", [_GEMM, _FINE, _SERVED], ids=["gemm", "fine", "served"])
def test_hoisted_forward_bitwise_on_the_benchmark_models(spec):
    """Hoisting every layer keeps the logits' bits on the three models of
    ``bench/workloads.py``, including odd and single-row batches."""
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=0),
        config=ExecutionConfig(executor=ThreadedExecutor(2), fused_input_projection="on"),
    )
    for batch in (1, 3, 4, 7, 8, 64):
        for seed in range(3):
            x, _ = make_batch(spec, seq_len=6, batch=batch, seed=seed)
            ref_logits, _ = reference_forward(spec, engine.params, x)
            assert np.array_equal(engine.forward(x), ref_logits), (batch, seed)


def test_training_loop_converges_fused(set_proj_block):
    set_proj_block(2)
    spec = small_spec(num_layers=2)
    x, labels = make_batch(spec)
    engine = fused_engine(spec)
    first = engine.train_batch(x, labels, lr=0.1)
    for _ in range(8):
        last = engine.train_batch(x, labels, lr=0.1)
    assert last < first


# -- mode resolution --------------------------------------------------------------


def test_hoist_modes():
    spec = small_spec(input_size=12, hidden_size=5, num_layers=3)
    assert hoist_rule(spec, "off", 8) == [False, False, False]
    assert hoist_rule(spec, "on", 8) == [True, True, True]
    # auto: panels of a few hundred bytes are far below the floor
    assert hoist_rule(spec, "auto", 8) == [False, False, False]
    with pytest.raises(ValueError):
        ExecutionConfig(fused_input_projection="sometimes")
    with pytest.raises(ValueError):
        build_brnn_graph(spec, seq_len=4, batch=8, fused_input_projection="sometimes")


def test_auto_rule_classifies_the_benchmark_shapes():
    """``auto`` hoists where the recorded sweep says it pays (docs/PERF.md):
    every layer of the ``train_gemm`` model, nothing on the fine-grained and
    served models or on anything test-sized."""
    assert hoist_rule(_GEMM, "auto", 32) == [True, True, True]
    assert hoist_rule(_FINE, "auto", 4) == [False] * 4
    for rows in range(1, 9):
        assert hoist_rule(_SERVED, "auto", rows) == [False, False]
    for cell in CELL_TYPES:
        tiny = small_spec(cell=cell, input_size=64, hidden_size=16, dtype=np.float64)
        assert not any(hoist_rule(tiny, "auto", 1))
    # on/off override the rule in both directions
    assert hoist_rule(_GEMM, "off", 32) == [False, False, False]
    assert hoist_rule(_FINE, "on", 4) == [True] * 4


def test_auto_rule_boundaries_sit_at_the_constants():
    at_floor = small_spec(input_size=384, hidden_size=128, num_layers=1)
    (rows_w, cols_w), _ = at_floor.cell_param_shapes(0)
    assert rows_w * cols_w * 4 == HOIST_MIN_PANEL_BYTES
    assert hoist_rule(at_floor, "auto", 8) == [True]
    below = small_spec(input_size=383, hidden_size=128, num_layers=1)
    assert hoist_rule(below, "auto", 8) == [False]
    # the same panel in float64 is twice the bytes
    half = small_spec(input_size=128, hidden_size=128, num_layers=1)
    assert hoist_rule(half, "auto", 8) == [False]
    double = small_spec(input_size=128, hidden_size=128, num_layers=1, dtype=np.float64)
    assert hoist_rule(double, "auto", 8) == [True]
    # past the row ceiling the per-step GEMMs are compute-bound already
    assert hoist_rule(_GEMM, "auto", HOIST_MAX_ROWS) == [True] * 3
    assert hoist_rule(_GEMM, "auto", HOIST_MAX_ROWS + 1) == [False] * 3


def test_engines_hoist_by_default_and_the_builder_does_not():
    """The engines' default graph is the hoisted one above the floor
    (``test_policy_table[train_gemm]`` pins the two threads it keeps);
    ``build_brnn_graph``'s own default stays the paper's task-per-cell
    graph."""
    engine = BParEngine(_GEMM, config=ExecutionConfig(executor="threaded", mbs=2))
    hoisted = build_brnn_graph(
        _GEMM, seq_len=32, batch=64, mbs=2,
        fused_input_projection=engine.config.fused_input_projection,
    )
    assert hoisted.fused_layers == [True, True, True]
    per_step = build_brnn_graph(_GEMM, seq_len=32, batch=64, mbs=2)
    assert per_step.fused_layers == [False, False, False]
    assert not any(t.kind in ("proj", "proj_bwd") for t in per_step.graph)


def test_proj_block_validation():
    with pytest.raises(ValueError, match="proj_block"):
        build_brnn_graph(small_spec(), seq_len=4, batch=2, proj_block=0)


# -- graph/cost-model structure ---------------------------------------------------


def _flops_cp(spec, seq_len, batch, mode, mbs=1, proj_block=None):
    result = build_brnn_graph(
        spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
        fused_input_projection=mode, proj_block=proj_block,
    )
    return result.graph.critical_path_length(lambda t: t.flops)


def test_critical_path_strictly_decreases_paper_scale():
    """Acceptance: simulated critical path shrinks at H=128, T=100, B=32."""
    for cell in ("lstm", "gru"):
        spec = BRNNSpec(
            cell=cell, input_size=1024, hidden_size=128, num_layers=2,
            merge_mode="sum", head="many_to_one", num_classes=11,
        )
        per_step = _flops_cp(spec, 100, 32, "off")
        fused = _flops_cp(spec, 100, 32, "on")
        assert fused < per_step


@pytest.mark.parametrize("mbs", [1, 4])
def test_critical_path_decreases_small(mbs):
    # blocks must be shorter than the sequence: a single whole-sequence
    # block gates the first cell on ALL the hoisted flops, and the
    # flop-weighted path length is exactly per-step's
    spec = small_spec()
    fused = _flops_cp(spec, 6, 8, "on", mbs, proj_block=2)
    off = _flops_cp(spec, 6, 8, "off", mbs)
    assert fused < off
    whole = _flops_cp(spec, 6, 8, "on", mbs, proj_block=6)
    assert whole == off


def test_fused_inference_graph_has_proj_tasks_and_no_caches(set_proj_block):
    set_proj_block(2)
    spec = small_spec()
    x, _ = make_batch(spec)
    engine = fused_engine(spec)
    engine.forward(x)
    result = engine.last_result
    assert result.proj_block == 2
    kinds = {t.kind for t in result.graph}
    assert "proj" in kinds and "proj_bwd" not in kinds
    # inference never materialises the per-step caches on the fused path
    for chunk in result.chunks:
        for grid in chunk.cache["fwd"] + chunk.cache["rev"]:
            assert all(c is None for c in grid)


def test_fused_training_graph_has_proj_bwd_tasks(set_proj_block):
    set_proj_block(2)
    spec = small_spec()
    x, labels = make_batch(spec)
    engine = fused_engine(spec)
    engine.train_batch(x, labels, lr=0.01)
    kinds = {t.kind for t in engine.last_result.graph}
    assert "proj" in kinds and "proj_bwd" in kinds
