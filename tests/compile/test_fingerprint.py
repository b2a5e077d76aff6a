"""ExecutionConfig.fingerprint(): the plan-cache key's config half."""

import pytest

from repro.config import ExecutionConfig
from repro.obs.hooks import ProfilingHooks
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import ThreadedExecutor


def test_stable_across_instances():
    a = ExecutionConfig(executor="threaded", n_workers=2, mbs=4, compile="on")
    b = ExecutionConfig(executor="threaded", n_workers=2, mbs=4, compile="on")
    assert a.fingerprint() == b.fingerprint()


def test_hex_shape():
    fp = ExecutionConfig().fingerprint()
    assert len(fp) == 16
    int(fp, 16)  # hex digest


def test_ignores_observability_attachments():
    bare = ExecutionConfig(executor="sim", mbs=2)
    wired = ExecutionConfig(
        executor="sim", mbs=2, metrics=MetricsRegistry(), hooks=ProfilingHooks()
    )
    assert bare.fingerprint() == wired.fingerprint()


@pytest.mark.parametrize("field,value", [
    ("executor", "threaded"),
    ("n_workers", 7),
    ("scheduler", "fifo"),
    ("mbs", 8),
    ("barrier_free", False),
    ("fused_input_projection", "on"),
    ("proj_block", 4),
    ("seed", 99),
    ("compile", "on"),
    ("fusion", "off"),
    ("wavefront_tile", 4),
])
def test_every_execution_field_matters(field, value):
    base = ExecutionConfig()
    assert base.fingerprint() != base.replace(**{field: value}).fingerprint()


def test_fusion_modes_fingerprint_distinctly():
    """Every kernel and every tile size is a distinct plan-cache key: a
    cached plan can never leak across graphs that differ.  Tile 1 is the
    per-step graph, so it shares ``None``'s key and misses no cached plan."""
    fps = [
        ExecutionConfig(fusion=f, wavefront_tile=t).fingerprint()
        for f, t in [
            ("off", None), ("off", 4), ("gates", None), ("gates", 4), ("gates", 8),
        ]
    ]
    assert len(set(fps)) == len(fps)
    assert ExecutionConfig(wavefront_tile=1) == ExecutionConfig()
    assert ExecutionConfig(wavefront_tile=1).fingerprint() == ExecutionConfig().fingerprint()


def test_no_stale_plan_cache_hit_across_fusion_modes():
    """A plan cached under one fusion mode's fingerprint is invisible to
    every other mode sharing the cache (the key's config half differs)."""
    from repro.compile import PlanCache, compile_graph
    from tests.compile.conftest import build_cost_only

    cache = PlanCache()
    shape = (6, 4)
    tiled = ExecutionConfig(wavefront_tile=4)
    cache.put((tiled.fingerprint(), shape), compile_graph(build_cost_only().graph))
    for other in (ExecutionConfig(), ExecutionConfig(fusion="off"),
                  ExecutionConfig(fusion="off", wavefront_tile=4)):
        assert cache.get((other.fingerprint(), shape)) is None
    assert cache.get((tiled.fingerprint(), shape)) is not None


def test_executor_instances_hash_by_type():
    a = ExecutionConfig(executor=ThreadedExecutor(2))
    b = ExecutionConfig(executor=ThreadedExecutor(4))
    # two pools of the same substrate execute the same plans
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != ExecutionConfig(executor="sim").fingerprint()


def test_replace_roundtrip():
    cfg = ExecutionConfig(mbs=4, compile="on")
    assert cfg.replace().fingerprint() == cfg.fingerprint()
    assert cfg.replace(mbs=4).fingerprint() == cfg.fingerprint()


def test_compile_field_validation():
    for removed in ("sometimes", "auto"):
        with pytest.raises(ValueError, match="compile"):
            ExecutionConfig(compile=removed)
    for mode in ("off", "on"):
        assert ExecutionConfig(compile=mode).compile == mode


def test_fusion_field_validation():
    with pytest.raises(ValueError, match="fusion"):
        ExecutionConfig(fusion="sometimes")
    with pytest.raises(ValueError, match="wavefront_tile"):
        ExecutionConfig(wavefront_tile=0)
    # not first inside a serving loop's first build
    with pytest.raises(ValueError, match="proj_block"):
        ExecutionConfig(proj_block=0)
    for mode in ("off", "gates"):
        assert ExecutionConfig(fusion=mode).fusion == mode
