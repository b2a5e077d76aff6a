"""The unified ExecutionConfig API."""

import argparse
import dataclasses
import warnings

import pytest

from repro.config import ExecutionConfig, add_execution_args, config_from_args
from repro.core.bpar import BParEngine
from repro.core.bseq import BSeqEngine
from repro.models.spec import BRNNSpec
from repro.obs.registry import MetricsRegistry
from repro.runtime.simexec import SimulatedExecutor
from repro.serve.engine import InferenceEngine


SPEC = BRNNSpec(
    cell="lstm", input_size=8, hidden_size=8, num_layers=2,
    merge_mode="sum", head="many_to_one", num_classes=3,
)


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.executor is None
        assert cfg.n_workers is None
        assert cfg.scheduler == "locality"
        assert cfg.mbs == 1
        assert cfg.barrier_free is True
        assert cfg.fused_input_projection == "auto"
        assert cfg.metrics is None and cfg.hooks is None

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
        engine = BSeqEngine(SPEC, config=ExecutionConfig(seed=3))
        assert engine.config.seed == 3
        assert engine.mbs == 1

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
        assert engine.fused_input_projection == "on"  # auto resolves in sim mode
        cfg = ExecutionConfig(executor="sim", n_workers=8, mbs=2)
        assert InferenceEngine(SPEC, config=cfg).config.n_workers == 8
        with pytest.raises(TypeError, match="mbs"):
            InferenceEngine(SPEC, config=cfg, mbs=2)


class TestCliIntegration:
    def _parse(self, argv):
        parser = argparse.ArgumentParser()
        add_execution_args(parser)
        return parser.parse_args(argv)

    def test_config_from_args_round_trip(self):
        args = self._parse(
            ["--executor", "threaded", "--cores", "4", "--scheduler", "fifo",
             "--mbs", "2", "--seed", "9", "--fused-input-projection", "off"]
        )
        cfg = config_from_args(args)
        assert cfg == ExecutionConfig(
            executor="threaded", n_workers=4, scheduler="fifo",
            mbs=2, seed=9, fused_input_projection="off",
        )

    def test_config_from_args_defaults(self):
        cfg = config_from_args(self._parse([]))
        assert cfg.executor == "sim"
        assert cfg.n_workers is None
        assert cfg.mbs == 4
        assert cfg.fused_input_projection == "auto"

    def test_config_from_args_attachments_and_overrides(self):
        registry = MetricsRegistry()
        cfg = config_from_args(self._parse([]), metrics=registry, mbs=1)
        assert cfg.metrics is registry
        assert cfg.mbs == 1
