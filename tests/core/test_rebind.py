"""A rebound build computes a fresh build's bits.

An engine keeps its last build and rebinds each step of the same shape
into it (``build_brnn_graph(out=...)``): the step's inputs and ``lr`` are
copied into the build's slots and its accumulators zeroed.  Steps two and
three of such an engine must give the bits of an engine that builds every
step afresh: losses, logits and updated weights, on every executor.  A
caller that updates the weights itself (momentum on ``loss_and_grads``)
must have its writes read by the next rebound step.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.mpexec import MultiprocessExecutor
from tests.conftest import make_batch, momentum_step, small_spec

CELLS = ("lstm", "gru", "rnn")
HEADS = ("many_to_one", "many_to_many")
#: a step: forward only, an SGD step inside the graph, or gradients the
#: caller applies with momentum
MODES = ("fwd", "train", "train-momentum")


class FreshEngine(BParEngine):
    """The reference: every step plans and builds its graph anew."""

    def _run(self, *args, **kwargs):
        self.last_result = None
        return super()._run(*args, **kwargs)


def _engines(spec, executor, mbs):
    return [
        cls(spec, BRNNParams.initialize(spec, 1),
            config=ExecutionConfig(executor=executor(), mbs=mbs))
        for cls in (BParEngine, FreshEngine)
    ]


def _step(engine, training, x, labels, lr=0.1):
    """What one step leaves behind, as arrays to compare bitwise."""
    if not training:
        return [engine.forward(x)]
    out = [np.float64(engine.train_batch(x, labels, lr=lr)), engine.last_result.logits()]
    out += [a.copy() for _, a in engine.params.arrays()]
    return out


def _momentum_step(engine, velocity, x, labels, lr=0.1):
    """A momentum step the caller takes on the engine's gradients."""
    loss, logits, grads = engine.loss_and_grads(x, labels)
    momentum_step(engine.params, velocity, grads, lr)
    out = [np.float64(loss), logits]
    return out + [a.copy() for p in (engine.params, velocity) for _, a in p.arrays()]


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _batches(spec, n=3, seq_len=5, batch=8):
    return [make_batch(spec, seq_len=seq_len, batch=batch, seed=seed) for seed in range(n)]


@pytest.mark.parametrize("mbs", [1, 2])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("cell", CELLS)
def test_rebound_steps_match_fresh_builds(cell, head, mode, mbs):
    spec = small_spec(cell=cell, head=head)
    rebound, fresh = _engines(spec, lambda: ThreadedExecutor(2), mbs)
    velocity = [BRNNParams.zeros_like(spec) for _ in (rebound, fresh)]
    build = None
    for x, labels in _batches(spec):
        if mode == "train-momentum":
            got, want = (
                _momentum_step(e, v, x, labels) for e, v in zip((rebound, fresh), velocity)
            )
        else:
            got, want = (_step(e, mode == "train", x, labels) for e in (rebound, fresh))
        _assert_same(got, want)
        assert build is None or rebound.last_result is build
        build = rebound.last_result


EXECUTORS = {
    "serial": SerialExecutor,
    "threaded1": lambda: ThreadedExecutor(1),
    "threaded2": lambda: ThreadedExecutor(2),
    "process": lambda: MultiprocessExecutor(2),
}


@pytest.mark.usefixtures("real_threads")
@pytest.mark.parametrize("mode", ["fwd", "train"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_rebound_steps_match_fresh_builds_on_every_executor(executor, mode):
    training = mode == "train"
    spec = small_spec(head="many_to_many")
    rebound, fresh = _engines(spec, EXECUTORS[executor], 2)
    for x, labels in _batches(spec):
        _assert_same(_step(rebound, training, x, labels), _step(fresh, training, x, labels))


def test_a_trailing_short_batch_is_a_build_of_its_own():
    spec = small_spec()
    rebound, fresh = _engines(spec, lambda: ThreadedExecutor(2), 2)
    full = _batches(spec, n=2)
    short = _batches(spec, n=1, batch=1)
    for x, labels in full + short + full:
        _assert_same(_step(rebound, True, x, labels), _step(fresh, True, x, labels))
        assert rebound.last_result.mbs == min(2, x.shape[1])


def test_loss_and_grads_then_train_batch_on_one_shape():
    spec = small_spec(head="many_to_many")
    rebound, fresh = _engines(spec, lambda: ThreadedExecutor(2), 2)
    calls = ["grads", "grads", "train", "train", "grads"]
    builds = []
    for call, (x, labels) in zip(calls, _batches(spec, n=len(calls))):
        if call == "grads":
            (got, want) = (e.loss_and_grads(x, labels) for e in (rebound, fresh))
            _assert_same(got[:2], want[:2])
            _assert_same([a for _, a in got[2].arrays()], [a for _, a in want[2].arrays()])
        else:
            _assert_same(_step(rebound, True, x, labels), _step(fresh, True, x, labels))
        builds.append(rebound.last_result)
    # a step without the weight update is a different graph: rebuilt, then reused
    assert [b is builds[i - 1] for i, b in enumerate(builds)][1:] == [True, False, True, False]


def test_a_new_lr_rebinds_and_does_not_rebuild():
    spec = small_spec()
    rebound, fresh = _engines(spec, lambda: ThreadedExecutor(2), 2)
    x, labels = make_batch(spec)
    build = None
    for lr in (0.1, 0.5, 0.02):
        _assert_same(_step(rebound, True, x, labels, lr), _step(fresh, True, x, labels, lr))
        assert build is None or rebound.last_result is build
        build = rebound.last_result


@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
def test_the_callers_arrays_are_never_written(training):
    spec = small_spec()
    engine = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2))
    batches = _batches(spec)
    kept = [(x.copy(), labels.copy()) for x, labels in batches]
    for x, labels in batches:
        _step(engine, training, x, labels)
        assert not np.shares_memory(engine.last_result.chunks[0].x, x)
    for (x, labels), (x0, labels0) in zip(batches, kept):
        assert np.array_equal(x, x0) and np.array_equal(labels, labels0)


def _args(spec, **overrides):
    x, labels = make_batch(spec)
    return {"x": x, "labels": labels, "mbs": 2, **overrides}


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("seq_len", {"x": make_batch(small_spec(), seq_len=6)[0]}),
        ("chunk_batches", {"mbs": 1}),
        ("training", {"training": False}),
        ("fused_layers", {"fused_input_projection": "on"}),
        ("wavefront_tile", {"wavefront_tile": 2}),
        ("paired", {"paired": True}),
        ("serialize_chunks", {"serialize_chunks": True}),
        ("barrier_free", {"barrier_free": False}),
        ("update_weights", {"update_weights": False}),
        ("params", {"params": BRNNParams.initialize(small_spec(), seed=1)}),
        ("dtype", {"x": make_batch(small_spec())[0].astype(np.float64)}),
    ],
)
def test_a_mismatched_out_raises_naming_the_field(field, overrides):
    spec = small_spec()
    params = BRNNParams.initialize(spec, seed=0)
    build = build_brnn_graph(spec, **_args(spec, params=params))
    with pytest.raises(ValueError, match=f"another {field}:"):
        build_brnn_graph(spec, **_args(spec, **{"params": params, **overrides}), out=build)
    assert build_brnn_graph(spec, **_args(spec, params=params), out=build) is build


def test_a_cost_only_out_raises():
    spec = small_spec()
    build = build_brnn_graph(spec, seq_len=5, batch=8)
    with pytest.raises(ValueError, match="functional build"):
        build_brnn_graph(spec, seq_len=5, batch=8, out=build)
