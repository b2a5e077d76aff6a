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
    """Weak references to one array of each lazily filled or preallocated
    slot kind a step owns (numpy arrays are weakly referenceable)."""
    state = result.chunks[0]
    arrays = [state.h_f[0][0], state.h_r[-1][-1], state.logits[0]]
    if result.training:
        arrays += [state.dh_f[0][0], state.grads.layers[0].fwd.W]
    if result.fused_layers[0]:
        arrays += [state.zx_f[0][0]]
        if result.training:
            arrays += [state.dz_r[0][0]]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    return [weakref.ref(a) for a in arrays]


@pytest.mark.parametrize("mode", ["off", "on"])
@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
def test_dropping_the_result_frees_the_step(no_collector, mode, training):
    spec = small_spec()
    x, labels = make_batch(spec)
    engine = BParEngine(
        spec, config=ExecutionConfig(
            executor=ThreadedExecutor(2), mbs=2, fused_input_projection=mode, proj_block=2,
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


def test_the_next_step_frees_the_previous_one(no_collector):
    """The engine keeps its last result only: finishing step ``n+1`` is the
    end of step ``n``'s buffers."""
    spec = small_spec()
    x, labels = make_batch(spec)
    engine = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2))
    engine.train_batch(x, labels)
    refs = _slot_refs(engine.last_result)
    engine.train_batch(x, labels)
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
