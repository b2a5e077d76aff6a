"""Tests for the attention extension (the paper's concluding claim)."""

import numpy as np
import pytest

from repro.extensions.attention import (
    AttentionParams,
    AttentionSpec,
    attention_reference,
    build_attention_graph,
    run_attention,
)
from repro.runtime import SerialExecutor, SimulatedExecutor, ThreadedExecutor
from repro.simarch.presets import laptop_sim


@pytest.fixture
def setup(rng):
    spec = AttentionSpec(model_dim=32, num_heads=4)
    params = AttentionParams.initialize(spec, seed=1)
    x = rng.standard_normal((12, 32)).astype(np.float32)
    return spec, params, x


def test_spec_validation():
    with pytest.raises(ValueError):
        AttentionSpec(model_dim=10, num_heads=3)
    with pytest.raises(ValueError):
        AttentionSpec(model_dim=0, num_heads=1)
    assert AttentionSpec(model_dim=64, num_heads=8).head_dim == 8


def test_reference_shapes_and_softmax_rows(setup):
    spec, params, x = setup
    y = attention_reference(spec, params, x)
    assert y.shape == x.shape
    assert np.all(np.isfinite(y))


def test_task_graph_matches_reference_bitwise(setup):
    spec, params, x = setup
    ref = attention_reference(spec, params, x)
    y = run_attention(spec, params, x, ThreadedExecutor(4))
    assert np.array_equal(y, ref)


def test_serial_and_simulated_executors_agree(setup):
    spec, params, x = setup
    ref = attention_reference(spec, params, x)
    y_serial = run_attention(spec, params, x, SerialExecutor())
    sim = SimulatedExecutor(laptop_sim(4), execute_payloads=True)
    y_sim = run_attention(spec, params, x, sim)
    assert np.array_equal(y_serial, ref)
    assert np.array_equal(y_sim, ref)


@pytest.mark.usefixtures("real_threads")
@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("policy", ["fifo", "lifo", "locality", "steal", "fuzz:1", "fuzz:2"])
def test_block_local_chunks_partition_sequence(setup, policy, n_workers):
    """chunks>1 computes block-local attention: per-block oracle match,
    whichever order the chunks' tasks interleave in (each payload is bound
    to its own chunk's stores, not to the build loop's last ones)."""
    spec, params, x = setup
    y = run_attention(spec, params, x, ThreadedExecutor(n_workers, policy), chunks=3)
    blocks = np.array_split(x, 3, axis=0)
    expected = np.concatenate(
        [attention_reference(spec, params, b) for b in blocks], axis=0
    )
    assert np.array_equal(y, expected)


def test_graph_structure_heads_independent(setup):
    spec, params, x = setup
    out = [None]
    g = build_attention_graph(spec, params, [x], out)
    # 4 tasks per head (q, k, v, ctx) + 1 output task
    assert len(g) == 4 * spec.num_heads + 1
    # wavefront: all heads' projections run concurrently (3 per head)
    assert g.max_wavefront() == 3 * spec.num_heads
    assert g.validate_acyclic()
    # output task depends on every head's context
    out_task = g.tasks[-1]
    assert g.indegree[out_task.tid] == spec.num_heads


def test_cost_only_graph_for_simulation(setup):
    spec, _, x = setup
    g = build_attention_graph(spec, None, [x], [None])
    sim = SimulatedExecutor(laptop_sim(4))
    trace = sim.run(g)
    assert trace.num_tasks() == len(g)
    # heads overlap on the simulated machine too
    assert trace.peak_concurrency() > 1
