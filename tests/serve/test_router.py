"""Router determinism: least-loaded ordering, hash-ring stability."""

import pytest

from repro.compile.warmup import length_buckets
from repro.serve import ConsistentHashRouter, InferenceRequest, LeastLoadedRouter
from repro.serve.batcher import DynamicBatcher
from repro.serve.config import ServeConfig
from repro.serve.router import HASH_VNODES, make_router


def req(seq_len, rid=0):
    return InferenceRequest(rid=rid, seq_len=seq_len, arrival_time=0.0)


def assignment(router, keys):
    return {k: router.route_key(k) for k in keys}


def test_least_loaded_prefers_short_queue_then_busy_then_index():
    r = LeastLoadedRouter(3)
    assert r.route(req(10), [(2, 0.0), (1, 0.0), (1, 0.5)]) == 1
    assert r.route(req(10), [(1, 0.4), (1, 0.1), (2, 0.0)]) == 1
    # full tie: lowest index wins (deterministic)
    assert r.route(req(10), [(0, 0.0), (0, 0.0), (0, 0.0)]) == 0


def test_hash_router_is_deterministic_across_instances():
    """sha256 ring points: the same assignment in every process, always."""
    a = ConsistentHashRouter(4, bucket_width=16, vnodes=32)
    b = ConsistentHashRouter(4, bucket_width=16, vnodes=32)
    keys = [f"shape:{w}" for w in range(16, 512, 16)]
    assert assignment(a, keys) == assignment(b, keys)


def test_hash_router_keys_on_the_length_bucket():
    r = ConsistentHashRouter(4, bucket_width=16)
    # all lengths in one bucket share a key -> share a home replica
    assert r.key_of(req(1)) == r.key_of(req(16)) == "shape:16"
    assert r.key_of(req(17)) == "shape:32"
    homes = {r.route(req(s, rid=i)) for i, s in enumerate((3, 9, 12, 16))}
    assert len(homes) == 1


def test_hash_ring_spreads_buckets_across_replicas():
    r = ConsistentHashRouter(4, bucket_width=16, vnodes=64)
    keys = [f"shape:{w}" for w in range(16, 2048, 16)]
    owners = set(assignment(r, keys).values())
    assert owners == {0, 1, 2, 3}  # nobody starves with enough keys


def test_remove_replica_only_remaps_its_own_keys():
    """The ring without replica 2 (replicas 0, 1 and 3) differs from the
    full ring only in the keys 2 owned."""
    keys = [f"shape:{w}" for w in range(16, 1024, 16)]
    before = assignment(ConsistentHashRouter(4, bucket_width=16, vnodes=64), keys)
    without = ConsistentHashRouter(2, bucket_width=16, vnodes=64)
    without.add_replica(3)
    after = assignment(without, keys)
    assert 2 in before.values()
    for k in keys:
        if before[k] != 2:
            assert after[k] == before[k]  # unrelated keys keep their home
        else:
            assert after[k] != 2
    # adding replica 2 back gives the full ring's assignment exactly
    without.add_replica(2)
    assert assignment(without, keys) == before


def test_ring_membership_errors():
    r = ConsistentHashRouter(2)
    with pytest.raises(ValueError):
        r.add_replica(0)
    with pytest.raises(ValueError, match="n_replicas"):
        ConsistentHashRouter(0)


def test_make_router_dispatches_on_config():
    ll = make_router(ServeConfig(replicas=2))
    assert isinstance(ll, LeastLoadedRouter) and ll.policy == "least_loaded"
    h = make_router(ServeConfig(replicas=2, router="hash", bucket_width=8))
    assert isinstance(h, ConsistentHashRouter) and h.policy == "hash"
    assert h.bucket_width == 8 and h.vnodes == HASH_VNODES


@pytest.mark.parametrize("width", [1, 7, 16, 20])
def test_batcher_router_and_warmup_agree_on_the_length_bucket(width):
    """One padded length per request: what the batcher pads to, the bucket
    the router keys on and what warmup compiles are the same number."""
    batcher = DynamicBatcher(config=ServeConfig(bucket_width=width))
    router = ConsistentHashRouter(2, bucket_width=width)
    for length in range(1, 3 * width + 1):
        padded = batcher.bucket_of(length)
        assert padded >= length and padded % width == 0 and padded - length < width
        assert router.key_of(req(length)) == f"shape:{padded}"
        assert length_buckets([length], width) == [padded]
