"""Unit tests for the B-Par task-graph builder (structure, not numerics)."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.access_spec import FAMILIES
from repro.core.graph_builder import _Builder, build_brnn_graph, split_batch
from repro.models.cells import CACHE_FIELDS, cell_forward, zeros_state
from repro.models.params import BRNNParams
from repro.models.spec import CELLS, BRNNSpec
from repro.runtime.depgraph import descendants_bitsets
from tests.conftest import make_batch, predecessors, reaches, small_spec
from tests.core.test_fusion import engine, grads_bitwise


def count_kind(result, kind):
    return sum(1 for t in result.graph if t.kind == kind)


def test_cost_only_m2o_task_counts():
    spec = small_spec(num_layers=3)  # L=3
    T, B = 5, 8
    res = build_brnn_graph(spec, seq_len=T, batch=B, training=True)
    L = spec.num_layers
    assert count_kind(res, "cell") == L * T * 2
    assert count_kind(res, "cell_bwd") == L * T * 2
    # merges: (L-1)*T intermediate + 1 final (m2o)
    assert count_kind(res, "merge") == (L - 1) * T + 1
    assert count_kind(res, "merge_bwd") == (L - 1) * T + 1
    assert count_kind(res, "head") == 1
    assert count_kind(res, "loss") == 1
    assert count_kind(res, "weight_update") == 2 * L + 1


def test_cost_only_m2m_task_counts():
    spec = small_spec(head="many_to_many", num_layers=2)
    T, B = 4, 8
    res = build_brnn_graph(spec, seq_len=T, batch=B, training=True)
    assert count_kind(res, "merge") == (2 - 1) * T + T
    assert count_kind(res, "head") == T
    assert count_kind(res, "loss") == T
    assert count_kind(res, "head_bwd") == T


def test_inference_graph_has_no_backward():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=4, batch=4, training=False)
    assert count_kind(res, "cell_bwd") == 0
    assert count_kind(res, "loss") == 0
    assert count_kind(res, "weight_update") == 0


def _caches(res) -> list:
    return [r.key for r in res.regions.regions() if r.key[0] == "cache"]


@pytest.mark.parametrize("tile", [None, 2], ids=["step", "tiled"])
@pytest.mark.parametrize("paired", [False, True], ids=["chains", "paired"])
@pytest.mark.parametrize("hoist", ["off", "on"])
def test_inference_declares_no_cache(hoist, paired, tile):
    """A ``cache`` key is what a step's backward reads; inference runs no
    backward and keeps no cache block, so no forward step outs one."""
    spec = small_spec()
    res = build_brnn_graph(
        spec, seq_len=5, batch=4, mbs=2, training=False, fused_input_projection=hoist,
        paired=paired, wavefront_tile=tile,
    )
    assert _caches(res) == []
    trained = build_brnn_graph(
        spec, seq_len=5, batch=4, mbs=2, fused_input_projection=hoist, wavefront_tile=tile,
    )
    assert len(_caches(trained)) == 2 * 2 * spec.num_layers * 5


def test_simulated_inference_declares_no_cache_and_infer_fine_has_1211_regions():
    """The simulator's engine builds the paper's tile-1 graph, with no
    ``cache`` key; at ``infer_fine``'s shape (4 layers, 100 steps, one
    chunk, per-step, unhoisted) that leaves 1,211 regions, 800 fewer than
    when every forward step declared one."""
    spec = small_spec()
    x, _ = make_batch(spec)
    sim = BParEngine(spec, BRNNParams.initialize(spec, 0), config=ExecutionConfig(
        executor="sim", mbs=2, fused_input_projection="off",
    ))
    sim.forward(x)
    assert sim.last_result.wavefront_tile is None and _caches(sim.last_result) == []
    fine = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4)
    assert len(build_brnn_graph(fine, seq_len=100, batch=4, training=False).regions) == 1211


def test_graph_is_acyclic_and_rooted():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=5, batch=6, mbs=2, training=True)
    assert res.graph.validate_acyclic()
    roots = [t for t in res.graph if res.graph.indegree[t.tid] == 0]
    # roots: first fwd and rev cells of layer 0 per chunk
    assert len(roots) == 4
    assert all(t.kind == "cell" for t in roots)


def test_mbs_multiplies_cell_tasks():
    spec = small_spec(num_layers=2)
    one = build_brnn_graph(spec, seq_len=4, batch=8, mbs=1, training=True)
    four = build_brnn_graph(spec, seq_len=4, batch=8, mbs=4, training=True)
    assert count_kind(four, "cell") == 4 * count_kind(one, "cell")
    # weight updates are shared (one per layer/direction regardless of mbs)
    assert count_kind(four, "weight_update") == count_kind(one, "weight_update")


def test_chunk_batches_sum_to_batch():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=3, batch=10, mbs=3, training=True)
    assert sum(res.chunk_batches) == 10
    assert res.mbs == 3


def test_barrier_mode_adds_barriers():
    spec = small_spec(num_layers=3)
    free = build_brnn_graph(spec, seq_len=4, batch=4, training=True, barrier_free=True)
    barred = build_brnn_graph(spec, seq_len=4, batch=4, training=True, barrier_free=False)
    assert count_kind(free, "barrier") == 0
    assert count_kind(barred, "barrier") > 0
    assert barred.graph.validate_acyclic()


def test_barrier_mode_reduces_wavefront():
    spec = small_spec(num_layers=3)
    free = build_brnn_graph(spec, seq_len=6, batch=6, mbs=2, training=True)
    barred = build_brnn_graph(
        spec, seq_len=6, batch=6, mbs=2, training=True, barrier_free=False
    )
    assert barred.graph.max_wavefront() <= free.graph.max_wavefront()


def test_serialize_chunks_creates_chains():
    spec = small_spec()
    res = build_brnn_graph(
        spec, seq_len=4, batch=8, mbs=2, training=True, serialize_chunks=True
    )
    # with serialization, each chunk is a chain: wavefront <= mbs + eps
    assert res.graph.max_wavefront() <= 3


def test_wavefront_scales_with_mbs():
    spec = small_spec(num_layers=2)
    w1 = build_brnn_graph(spec, seq_len=6, batch=8, mbs=1).graph.max_wavefront()
    w4 = build_brnn_graph(spec, seq_len=6, batch=8, mbs=4).graph.max_wavefront()
    assert w4 > w1


def test_merge_task_depends_on_both_directions():
    spec = small_spec(num_layers=2)
    res = build_brnn_graph(spec, seq_len=3, batch=4, training=False)
    g = res.graph
    for task in g:
        if task.kind == "merge" and "mergeLast" not in task.name:
            preds = predecessors(g, task.tid)
            kinds = {g.tasks[p].kind for p in preds}
            assert kinds == {"cell"}
            assert len(preds) == 2


def test_weight_update_depends_on_all_chunk_grads():
    spec = small_spec(num_layers=2)
    res = build_brnn_graph(spec, seq_len=3, batch=6, mbs=3, training=True)
    g = res.graph
    updates = [t for t in g if t.kind == "weight_update"]
    for u in updates:
        assert len(u.ins) == 3  # one gW region per chunk


def test_functional_requires_params_and_labels():
    spec = small_spec()
    x, labels = make_batch(spec)
    with pytest.raises(ValueError):
        build_brnn_graph(spec, x=x, training=True, labels=labels)  # no params
    with pytest.raises(ValueError):
        build_brnn_graph(spec, x=x, training=True, params=BRNNParams.initialize(spec))


def test_cost_only_requires_dims():
    spec = small_spec()
    with pytest.raises(ValueError):
        build_brnn_graph(spec)


def test_cost_only_results_raise_on_data_access():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=3, batch=4)
    with pytest.raises(RuntimeError):
        res.logits()
    with pytest.raises(RuntimeError):
        res.mean_loss()


def test_split_batch_validation():
    with pytest.raises(ValueError):
        split_batch(np.zeros((4, 2, 3)), 5, axis=1)
    with pytest.raises(ValueError):
        split_batch(np.zeros((4, 2, 3)), 0, axis=1)
    chunks = split_batch(np.zeros((4, 10, 3)), 3, axis=1)
    assert [c.shape[1] for c in chunks] == [4, 3, 3]


def test_flops_annotations_positive():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=3, batch=4, training=True)
    for t in res.graph:
        if t.kind in ("cell", "cell_bwd", "head", "head_bwd"):
            assert t.flops > 0


def test_cell_working_set_includes_weights():
    spec = small_spec()
    res = build_brnn_graph(spec, seq_len=3, batch=4, training=False)
    w_shape, b_shape = spec.cell_param_shapes(0)
    w_bytes = (w_shape[0] * w_shape[1] + b_shape[0]) * 4
    cells = [t for t in res.graph if t.kind == "cell"]
    assert all(t.working_set_bytes() >= w_bytes for t in cells)


def test_functional_and_cost_only_have_same_structure():
    spec = small_spec()
    x, labels = make_batch(spec, seq_len=4, batch=6)
    params = BRNNParams.initialize(spec)
    functional = build_brnn_graph(spec, x=x, labels=labels, params=params, training=True)
    cost_only = build_brnn_graph(spec, seq_len=4, batch=6, training=True)
    assert len(functional.graph) == len(cost_only.graph)
    assert functional.graph.num_edges() == cost_only.graph.num_edges()
    for a, b in zip(functional.graph, cost_only.graph):
        assert a.name == b.name and a.kind == b.kind and a.flops == b.flops


def test_fused_proj_bwd_runs_concurrently_with_cell_backward():
    """The fused backward's concurrency claim, stated as graph reachability.

    A hoisted layer's cell-backward tasks keep the pointwise work and
    ``dh_prev`` and touch no gradient; the per-block ``proj_bwd`` tasks own
    the whole weight-gradient panel (region ``gW``).  A ``proj_bwd`` block
    is ordered after the cell-backward tasks *whose dz it consumes*, but
    must be genuinely unordered w.r.t. cell-backward tasks at other
    positions: that unordered pair is exactly the overlap the hoist buys.
    """
    spec = small_spec(num_layers=2)
    T = 5
    res = build_brnn_graph(
        spec, seq_len=T, batch=6, training=True,
        fused_input_projection="on", proj_block=1,
    )
    g = res.graph
    bits = descendants_bitsets(g.successors)
    byname = {t.name: t.tid for t in g}

    for direction in ("fwd", "rev"):
        # proj_bwd of the FIRST backward step (dz at the last block)...
        first_pos = T - 1 if direction == "fwd" else 0
        proj = byname[f"projBwd[0]L1{direction}b{first_pos}-{first_pos + 1}"]
        # ...is ordered after the same-position cell backward (RAW on dz):
        producer = byname[f"{direction}Bwd[0]L1s{T - 1}"]
        assert reaches(bits, producer, proj)
        # ...but unordered w.r.t. every later cell-backward step of the
        # same (layer, direction):
        for step in range(T - 2, -1, -1):
            cell_bwd = byname[f"{direction}Bwd[0]L1s{step}"]
            assert not reaches(bits, proj, cell_bwd) and not reaches(bits, cell_bwd, proj), (
                f"projBwd@{first_pos} should overlap {direction}Bwd s{step}"
            )


@pytest.mark.parametrize("cell", CELLS)
def test_state_and_cache_region_widths_are_the_cell_table_rows(cell):
    """``h``/``dh`` regions are ``state_arrays`` and ``cache`` regions
    ``F + state_arrays`` arrays of ``(B, H)`` (``F`` the cell's
    ``CACHE_FIELDS``), and that is what the kernel hands on and retains (the
    cache's ``x`` is the ``x``/``m`` region's, not its)."""
    spec = small_spec(cell=cell)
    B, row = 4, CELLS[cell]
    cache_arrays = len(CACHE_FIELDS[cell]) + row.state_arrays
    res = build_brnn_graph(spec, seq_len=3, batch=B, training=True)
    array_bytes = B * spec.hidden_size * np.dtype(spec.dtype).itemsize
    widths = {
        kind: {r.nbytes for r in res.regions.regions() if r.key[0] == kind}
        for kind in ("h", "dh", "cache")
    }
    assert widths["h"] == widths["dh"] == {row.state_arrays * array_bytes}
    assert widths["cache"] == {cache_arrays * array_bytes}

    params = BRNNParams.initialize(spec, 0)
    W, b = params.layers[0].fwd.W, params.layers[0].fwd.b
    x = np.zeros((B, spec.input_size), dtype=spec.dtype)
    h, c, cache = cell_forward(spec, x, *zeros_state(spec, B), W, b)
    assert sum(a is not None for a in (h, c)) == row.state_arrays
    cache_bytes = sum(a.nbytes for a in vars(cache).values() if a is not None)
    assert cache_bytes - x.nbytes == cache_arrays * array_bytes
    assert W.shape[1] == row.gates * spec.hidden_size


def test_hoisted_cell_backward_leaves_the_gradient_to_the_block_tasks():
    """Per (chunk, layer, direction) the ``gW`` panel is written by the
    ``proj_bwd`` blocks only, one after the other, and read by the update."""
    spec = small_spec(num_layers=2)
    res = build_brnn_graph(
        spec, seq_len=5, batch=6, mbs=2, training=True,
        fused_input_projection="on", proj_block=2,
    )
    g = res.graph
    bits = descendants_bitsets(g.successors)
    assert not any(r.key[0] == "gWx" for r in res.regions.regions())
    for key in [r.key for r in res.regions.regions() if r.key[0] == "gW"]:
        writers = [t for t in g if any(r.key == key for r in t.writes())]
        assert writers and {t.kind for t in writers} == {"proj_bwd"}
        assert len(writers) == 3  # blocks of 2, 2 and 1 positions
        for a, b in zip(writers, writers[1:]):
            assert reaches(bits, a.tid, b.tid)
    cell_bwd = [t for t in g if t.kind == "cell_bwd"]
    assert cell_bwd and not any(r.key[0] == "gW" for t in cell_bwd for r in t.regions())


@pytest.mark.parametrize("fused", ["off", "on"])
def test_barriered_backward_runs_the_direction_chains_in_turn(fused):
    """``barrier_free=False`` serialises a layer's two backward chains: the
    reverse chain's first task waits for the forward chain's last, which a
    hoisted chain (no ``gW`` writes of its own) orders through its last dz."""
    spec = small_spec(num_layers=2)
    T = 5
    res = build_brnn_graph(
        spec, seq_len=T, batch=6, mbs=2, training=True, barrier_free=False,
        fused_input_projection=fused, proj_block=2,
    )
    g = res.graph
    bits = descendants_bitsets(g.successors)
    byname = {t.name: t.tid for t in g}
    for mb in range(2):
        for layer in range(2):
            last_fwd = byname[f"fwdBwd[{mb}]L{layer}s0"]
            first_rev = byname[f"revBwd[{mb}]L{layer}s{T - 1}"]
            assert reaches(bits, last_fwd, first_rev)


def test_per_step_weight_gradient_serialises_backward_chain():
    """Control for the test above: without hoisting the single ``gW`` inout
    region chains every cell-backward of a (layer, direction) totally."""
    spec = small_spec(num_layers=2)
    T = 5
    res = build_brnn_graph(spec, seq_len=T, batch=6, training=True,
                           fused_input_projection="off")
    g = res.graph
    bits = descendants_bitsets(g.successors)
    byname = {t.name: t.tid for t in g}
    steps = [byname[f"fwdBwd[0]L1s{s}"] for s in range(T)]
    for a, b in zip(steps[1:][::-1], steps[:-1][::-1]):
        assert reaches(bits, a, b) or reaches(bits, b, a)


def cell_tiles(engine):
    """``(lo, hi)`` step ranges of the cell tasks of the engine's last graph."""
    return {
        (t.meta["lo"], t.meta["hi"])
        for t in engine.last_result.graph if t.kind in ("cell", "cell_bwd")
    }


def test_cell_step_is_a_chain_tile_of_one():
    """One cell-chain emitter per pass direction: a tile-1 cell task is
    exactly one step, and ``wavefront_tile`` cuts the same chain into
    longer tiles, ragged last tile included, bit for bit."""
    families = [f.split("@")[0] for f in FAMILIES]
    assert families.count("cell") == 1 and families.count("cell_bwd") == 1

    spec = small_spec()
    x, labels = make_batch(spec, seq_len=7)
    per_step = engine(spec, wavefront_tile=1)
    ref = per_step.loss_and_grads(x, labels)
    assert cell_tiles(per_step) == {(s, s + 1) for s in range(7)}

    wave = engine(spec, wavefront_tile=3)
    loss, logits, grads = wave.loss_and_grads(x, labels)
    assert cell_tiles(wave) == {(0, 3), (3, 6), (6, 7)}
    assert loss == ref[0]
    assert np.array_equal(logits, ref[1])
    assert grads_bitwise(grads, ref[2])


def test_default_engine_tiles_a_one_thread_shape_per_chain():
    """Without ``wavefront_tile`` the engine takes the granularity policy's
    tile: a shape this small runs on one thread, so every direction chain
    is one task, with the per-step graph's bits."""
    spec = small_spec()
    x, labels = make_batch(spec, seq_len=7)
    default = engine(spec)
    loss, logits, grads = default.loss_and_grads(x, labels)
    assert cell_tiles(default) == {(0, 7)}
    assert default.last_trace.n_cores == 1
    ref = engine(spec, wavefront_tile=1).loss_and_grads(x, labels)
    assert loss == ref[0]
    assert np.array_equal(logits, ref[1])
    assert grads_bitwise(grads, ref[2])


def test_emitting_a_family_without_a_rule_raises():
    """Declarations come from the access table, so a task whose family has
    no rule cannot be emitted at all."""
    builder = _Builder(build_brnn_graph(small_spec(), seq_len=3, batch=2, training=False), lr=0.0)
    with pytest.raises(KeyError, match="probe@test_emitting_a_family_without_a_rule_raises"):
        builder._add("probe[0]", None, kind="probe", meta={"mb": 0})
    assert len(builder.graph) == 0
