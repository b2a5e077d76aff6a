"""ServeConfig: validation and fingerprint."""

import dataclasses

import pytest

from repro.serve import DynamicBatcher, RequestQueue, ServeConfig


def test_frozen_and_validated():
    cfg = ServeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.replicas = 2
    with pytest.raises(ValueError):
        ServeConfig(replicas=0)
    with pytest.raises(ValueError):
        ServeConfig(router="random")
    with pytest.raises(ValueError):
        ServeConfig(batcher="eager")
    with pytest.raises(ValueError, match="queue_capacity must be >= 1"):
        ServeConfig(queue_capacity=0)
    with pytest.raises(ValueError, match="queue_policy must be one of"):
        ServeConfig(queue_policy="panic")
    with pytest.raises(ValueError):
        ServeConfig(tenant_rate_hz=0.0)
    with pytest.raises(ValueError):
        ServeConfig(deadline_slo_s=-1.0)
    with pytest.raises(ValueError):
        ServeConfig(admission_slack=-0.1)


def test_replace_returns_modified_copy():
    base = ServeConfig()
    wide = base.replace(replicas=4, router="hash")
    assert wide.replicas == 4 and wide.router == "hash"
    assert base.replicas == 1  # untouched


def test_fingerprint_depends_on_every_field():
    base = ServeConfig()
    assert base.fingerprint() == ServeConfig().fingerprint()  # stable
    for field in dataclasses.fields(ServeConfig):
        changed = {
            "replicas": 2, "router": "hash", "hash_vnodes": 32,
            "batcher": "continuous", "tenant_rate_hz": 10.0,
            "tenant_burst": 4.0, "deadline_slo_s": 0.1,
            "admission_slack": 2.0, "queue_capacity": 7,
            "queue_policy": "drop_oldest", "max_batch_size": 3,
            "max_wait": 1.0, "bucket_width": 5, "warmup": False,
        }[field.name]
        assert base.replace(**{field.name: changed}).fingerprint() != \
            base.fingerprint(), field.name


def test_every_entry_point_accepts_config():
    cfg = ServeConfig(queue_capacity=4, queue_policy="drop_oldest",
                      max_batch_size=2, max_wait=1e-3, bucket_width=8)
    q = RequestQueue(config=cfg)
    assert q.capacity == 4 and q.policy == "drop_oldest"
    b = DynamicBatcher(config=cfg)
    assert b.max_batch_size == 2 and b.bucket_width == 8


def test_fingerprint_distinguishes_deployments_for_plan_keys():
    """Two serving deployments of one model must not share plan keys."""
    from repro.config import ExecutionConfig
    from repro.models.spec import BRNNSpec
    from repro.serve import InferenceEngine

    spec = BRNNSpec(input_size=4, hidden_size=4, num_layers=1, num_classes=3)
    a = InferenceEngine(
        spec, config=ExecutionConfig(executor="sim", compile="on"),
        serve_config=ServeConfig(max_batch_size=4),
    )
    b = InferenceEngine(
        spec, config=ExecutionConfig(executor="sim", compile="on"),
        serve_config=ServeConfig(max_batch_size=8),
    )
    assert a._config_fingerprint != b._config_fingerprint
