"""The unified ExecutionConfig API."""

import dataclasses
import warnings

import pytest

from repro.config import ExecutionConfig
from repro.core.bpar import BParEngine
from repro.core.bseq import BSeqEngine
from repro.models.spec import BRNNSpec
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.simexec import SimulatedExecutor
from repro.serve.engine import InferenceEngine
from tests.conftest import laptop_sim


SPEC = BRNNSpec(
    cell="lstm", input_size=8, hidden_size=8, num_layers=2,
    merge_mode="sum", head="many_to_one", num_classes=3,
)


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.executor is None
        assert cfg.n_workers is None
        assert cfg.mbs == 1
        assert cfg.barrier_free is True
        assert cfg.fused_input_projection == "auto"
        assert cfg.metrics is None
        # every field has a caller; the policy, block and seed are the
        # executor's, the builder's and ``params=``'s
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "executor", "n_workers", "mbs", "barrier_free", "fused_input_projection",
            "wavefront_tile", "compile", "metrics",
        ]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().mbs = 2

    def test_replace(self):
        cfg = ExecutionConfig(mbs=2).replace(mbs=8, executor="sim")
        assert (cfg.mbs, cfg.executor) == (8, "sim")

    def test_validation(self):
        with pytest.raises(ValueError, match="mbs must be >= 1"):
            ExecutionConfig(mbs=0)
        with pytest.raises(ValueError, match="fused_input_projection"):
            ExecutionConfig(fused_input_projection="maybe")

    def test_executor_field_validation(self):
        """An executor the engines cannot build fails at construction, not
        when an engine resolves it (on ``"sim"``, ``n_workers=0`` used to
        surface as a core-count error)."""
        for bad in ("gpu", "Threaded", "", object(), 3):
            with pytest.raises(ValueError, match="executor must be"):
                ExecutionConfig(executor=bad)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="n_workers must be None or >= 1"):
                ExecutionConfig(executor="sim", n_workers=bad)
            with pytest.raises(ValueError, match="n_workers"):
                ExecutionConfig(n_workers=bad)
        for name in (None, "threaded", "process", "sim"):
            assert ExecutionConfig(executor=name, n_workers=1).executor == name
        for executor in (SerialExecutor(), ThreadedExecutor(2), SimulatedExecutor(laptop_sim(2))):
            assert ExecutionConfig(executor=executor).executor is executor

    def test_compile_field_validation(self):
        for removed in ("sometimes", "auto"):
            with pytest.raises(ValueError, match="compile"):
                ExecutionConfig(compile=removed)
        for mode in ("off", "on"):
            assert ExecutionConfig(compile=mode).compile == mode

    def test_granularity_field_validation(self):
        with pytest.raises(ValueError, match="wavefront_tile"):
            ExecutionConfig(wavefront_tile=0)
        # one kernel per cell: no option selects another
        assert "fusion" not in {f.name for f in dataclasses.fields(ExecutionConfig)}

    def test_tile_one_is_an_explicit_override(self):
        """``None`` is the granularity policy's tile, ``1`` the per-step
        graph whatever the policy says: the two stay distinct."""
        assert ExecutionConfig(wavefront_tile=1).wavefront_tile == 1
        assert ExecutionConfig(wavefront_tile=1) != ExecutionConfig()


class TestEngineEquivalence:
    """Engines take ``config=``; nothing else names the execution setup."""

    def test_config_path_emits_no_deprecation_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            BParEngine(SPEC, config=ExecutionConfig(mbs=2))

    def test_bpar_config_and_legacy_conflict(self):
        with pytest.raises(TypeError, match="mbs"):
            BParEngine(SPEC, config=ExecutionConfig(), mbs=2)

    def test_bseq_inherits_config_path(self):
        engine = BSeqEngine(SPEC, config=ExecutionConfig(mbs=3))
        assert engine.config.mbs == 3
        assert engine.mbs == 3

    def test_bpar_sim_executor_from_config(self):
        engine = BParEngine(
            SPEC, config=ExecutionConfig(executor="sim", n_workers=4)
        )
        assert isinstance(engine.executor, SimulatedExecutor)

    def test_bpar_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            BParEngine(SPEC, config=ExecutionConfig(executor="quantum"))

    def test_metrics_threaded_through_engine(self):
        registry = MetricsRegistry()
        engine = BParEngine(
            SPEC, config=ExecutionConfig(executor="sim", metrics=registry)
        )
        assert engine.metrics is registry
        assert engine.executor.metrics is registry

    def test_serve_engine_defaults_and_config(self):
        engine = InferenceEngine(SPEC)
        assert engine.executor == "sim"
        assert engine.config.fused_input_projection == "on"  # SERVE_DEFAULTS
        cfg = ExecutionConfig(executor="sim", n_workers=8, mbs=2)
        assert InferenceEngine(SPEC, config=cfg).config.n_workers == 8
        with pytest.raises(TypeError, match="mbs"):
            InferenceEngine(SPEC, config=cfg, mbs=2)

