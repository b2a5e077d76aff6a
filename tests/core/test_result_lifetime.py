"""A finished step's buffers are freed by reference count, not by the
cyclic collector.

A training step allocates a few hundred MB of chunk buffers at the
benchmark's sizes; if the graph and its build result refer to each other (or
a payload closure captures the builder, which holds both), those buffers
outlive the step until a generation-2 collection happens to run.  With the
collector switched off, dropping the last reference must be enough.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime import ThreadedExecutor
from repro.serve.engine import InferenceEngine
from tests.conftest import make_batch, small_spec
from tests.serve.test_engine_compile import make_batch as make_serve_batch


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _slot_refs(result):
    """Weak references to one block of each slot kind a step owns, and to a
    cell cache when it keeps one (numpy arrays are weakly referenceable)."""
    state = result.chunks[0]
    arrays = [state.h[0], state.h[-1], state.logits]
    if result.training:
        arrays += [state.dh[0], state.grads.layers[0].fwd.W]
    if result.fused_layers[0]:
        arrays += [state.zx[0]]
        if result.training:
            arrays += [state.dz[0]]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    return [weakref.ref(a) for a in arrays]


@pytest.mark.parametrize("mode", ["off", "on"])
@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
def test_dropping_the_result_frees_the_step(no_collector, set_proj_block, mode, training):
    set_proj_block(2)
    spec = small_spec()
    x, labels = make_batch(spec)
    engine = BParEngine(
        spec, config=ExecutionConfig(
            executor=ThreadedExecutor(2), mbs=2, fused_input_projection=mode,
        ),
    )
    if training:
        engine.train_batch(x, labels)
    else:
        engine.forward(x)
    refs = _slot_refs(engine.last_result)
    assert all(ref() is not None for ref in refs)
    engine.last_result = engine.last_trace = None
    assert all(ref() is None for ref in refs)


def test_a_same_shape_step_keeps_the_buffers(no_collector):
    """A step of the last step's shape is rebound into the engine's one
    build: the preallocated buffers (inputs, state blocks, accumulators,
    gradients, the cell caches' block) are the same arrays, and the cache
    records the same objects: no run assigns storage."""
    spec = small_spec()
    x, labels = make_batch(spec)
    engine = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2))
    engine.train_batch(x, labels)
    first = engine.last_result

    def held(state):
        return [state.x, state.labels, state.h[0], state.merged[0], state.logits, state.dh[0],
                state.dmerged[0], state.grads.layers[0].fwd.W, state.acts[0],
                state.cache["fwd"][0][0], state.cache["rev"][-1][-1]]

    refs = [weakref.ref(a) for a in held(first.chunks[0])]
    engine.train_batch(*make_batch(spec, seed=8))
    assert engine.last_result is first
    assert all(ref() is kept for ref, kept in zip(refs, held(first.chunks[0])))


def test_a_new_shape_frees_the_previous_build(no_collector):
    """The engine keeps one build: finishing a step of another shape is the
    end of the previous build's buffers."""
    spec = small_spec()
    engine = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2))
    engine.train_batch(*make_batch(spec))
    refs = _slot_refs(engine.last_result)
    engine.train_batch(*make_batch(spec, seq_len=6))
    assert all(ref() is None for ref in refs)


def test_a_built_graph_alone_keeps_its_storage(no_collector):
    """The other direction: an executor handed only ``result.graph`` still
    reaches the buffers through ``graph.storage``."""
    spec = small_spec()
    x, labels = make_batch(spec)
    graph = build_brnn_graph(
        spec, x=x, labels=labels, params=BRNNParams.initialize(spec, seed=3)
    ).graph
    ThreadedExecutor(1).run(graph)
    assert graph.storage.graph is None
    assert np.all(np.isfinite(graph.storage.logits()))


def test_evicting_a_cached_build_frees_it(no_collector):
    """``InferenceEngine`` keeps a warm shape's build in its plan cache;
    eviction must be the end of that build's buffers."""
    spec = small_spec(head="many_to_many", num_layers=2)
    engine = InferenceEngine(
        spec, config=ExecutionConfig(executor="threaded", n_workers=2, mbs=2, compile="on"),
    )
    engine.plan_cache.capacity = 1
    engine.execute(make_serve_batch(spec, 0, seq_len=4))
    (entry,) = engine.plan_cache._entries.values()
    refs = _slot_refs(entry.payload)
    del entry
    engine.execute(make_serve_batch(spec, 1, seq_len=5))  # a second shape evicts the first
    assert engine.plan_cache.evictions == 1
    assert all(ref() is None for ref in refs)
