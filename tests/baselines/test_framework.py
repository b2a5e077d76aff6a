"""Unit tests for the per-layer-barrier framework engines."""

import pytest

from repro.baselines import KerasCPUEngine, PyTorchCPUEngine
from repro.baselines.framework import FrameworkCPUEngine, FrameworkProfile
from repro.simarch.presets import xeon_8160_2s
from tests.conftest import small_spec


def profile(**over):
    kw = dict(
        name="test-fw",
        op_overhead_s=10e-6,
        gemm_eff_base=1.0,
        gemm_eff_hidden_ref=0.0,
        sync_s=5e-6,
        barrier_s=50e-6,
        min_intra_work=1e6,
        max_intra=8,
    )
    kw.update(over)
    return FrameworkProfile(**kw)


def test_profile_gemm_eff_flat_when_no_ref():
    p = profile()
    assert p.gemm_eff(128) == p.gemm_eff(4096) == 1.0


def test_profile_gemm_eff_decays_with_hidden():
    p = profile(gemm_eff_base=0.8, gemm_eff_hidden_ref=400.0)
    assert p.gemm_eff(400) == pytest.approx(0.4)
    assert p.gemm_eff(1200) < p.gemm_eff(400)


def test_intra_ways_bounded():
    p = profile(min_intra_work=1e6, max_intra=8)
    assert p.intra_ways(5e5, 48) == 1       # too little work
    assert p.intra_ways(4e6, 48) == 4       # work-limited
    assert p.intra_ways(1e9, 48) == 8       # capped by max_intra
    assert p.intra_ways(1e9, 2) == 2        # capped by cores


def test_intra_eff_decays():
    p = profile(intra_eff_alpha=0.1)
    assert p.intra_eff(1) == 1.0
    assert p.intra_eff(11) == pytest.approx(0.5)


def test_graph_has_per_layer_barriers():
    spec = small_spec(num_layers=3)
    eng = FrameworkCPUEngine(spec, profile())
    g = eng.build_graph(seq_len=4, batch=8, n_cores=4, training=True)
    barriers = [t for t in g if t.kind == "barrier"]
    # forward: one per layer; backward: one per layer
    assert len(barriers) == 2 * spec.num_layers
    assert g.validate_acyclic()


def test_inference_graph_smaller():
    spec = small_spec(num_layers=2)
    eng = FrameworkCPUEngine(spec, profile())
    gt = eng.build_graph(4, 8, 4, training=True)
    gi = eng.build_graph(4, 8, 4, training=False)
    assert len(gi) < len(gt)


def test_direction_chains_serialized():
    """§II: within a layer the rev chain starts after the fwd chain ends."""
    spec = small_spec(num_layers=1)
    eng = FrameworkCPUEngine(spec, profile(min_intra_work=1e12))  # ways=1
    g = eng.build_graph(seq_len=3, batch=2, n_cores=4, training=False)
    by_name = {t.name: t for t in g}
    last_fwd = by_name["test-fw.f.L0.fwd.t2.p0"]
    first_rev = by_name["test-fw.f.L0.rev.t0.p0"]
    assert first_rev.tid in g.successors[last_fwd.tid] or any(
        first_rev.tid in g.successors[s] for s in g.successors[last_fwd.tid]
    )


def test_barrier_limits_wavefront():
    spec = small_spec(num_layers=3)
    eng = FrameworkCPUEngine(spec, profile(max_intra=4))
    g = eng.build_graph(seq_len=4, batch=64, n_cores=4, training=True)
    # intra-op ways bound concurrency: never more than max_intra + merges
    assert g.max_wavefront() <= 4 + 4  # slices + merge fan


def test_batch_time_positive_and_fixed_cost():
    spec = small_spec(num_layers=2)
    p = profile(batch_fixed_s=0.5)
    eng = FrameworkCPUEngine(spec, p, xeon_8160_2s())
    t, trace = eng.batch_time(3, 4, n_cores=4)
    assert t > 0.5
    assert trace.num_tasks() > 0


def test_more_cores_help_large_batch():
    spec = small_spec(hidden_size=64, num_layers=2)
    eng = KerasCPUEngine(spec)
    t1, _ = eng.batch_time(10, 256, n_cores=1)
    t16, _ = eng.batch_time(10, 256, n_cores=16)
    assert t16 < t1


def test_pytorch_slower_than_keras():
    spec = small_spec(hidden_size=128, num_layers=2)
    k, _ = KerasCPUEngine(spec).batch_time(10, 64, n_cores=8)
    p, _ = PyTorchCPUEngine(spec).batch_time(10, 64, n_cores=8)
    assert p > k


def test_engine_names():
    spec = small_spec()
    assert KerasCPUEngine(spec).profile.name == "Keras-CPU"
    assert PyTorchCPUEngine(spec).profile.name == "PyTorch-CPU"
