"""ServeConfig: validation and the one config= parameter."""

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
    with pytest.raises(ValueError):
        ServeConfig(tenant_rate_hz=0.0)
    with pytest.raises(ValueError):
        ServeConfig(deadline_slo_s=-1.0)


def test_replace_returns_modified_copy():
    base = ServeConfig()
    wide = base.replace(replicas=4, router="hash")
    assert wide.replicas == 4 and wide.router == "hash"
    assert base.replicas == 1  # untouched


def test_every_entry_point_accepts_config():
    cfg = ServeConfig(queue_capacity=4, max_batch_size=2, max_wait=1e-3, bucket_width=8)
    q = RequestQueue(config=cfg)
    assert q.capacity == 4
    b = DynamicBatcher(config=cfg)
    assert b.max_batch_size == 2 and b.bucket_width == 8

