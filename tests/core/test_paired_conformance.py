"""Merge tiles and paired directions compute the paper graph's bits.

A shape that runs on one thread is built as one task per layer per pass:
the chain tile spans the sequence, the merges follow the chain tile, and
the two directions' forward chains run as one stacked chain.  Whatever the
executor, that graph must give the bits of the paper's per-step graph and
of the sequential oracle (``mbs=1``): logits, loss, every gradient and the
updated weights, on an engine's second and third steps as on its first.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.reference import reference_forward, reference_train_step
from repro.models.spec import CELL_TYPES
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.racecheck import _result_fingerprint
from repro.serve.engine import InferenceEngine
from tests.conftest import CONF_SEQ_LEN, build_functional, make_batch, small_spec
from tests.serve.test_engine_compile import make_batch as make_served_batch

HEADS = ("many_to_one", "many_to_many")

#: serial, and the threaded executor on one and on two real threads
EXECUTORS = {
    "serial": SerialExecutor,
    "threaded1": lambda: ThreadedExecutor(1),
    "threaded2": lambda: ThreadedExecutor(2),
}

#: (wavefront_tile, paired): merge tiles alone, paired at a mid tile, and the
#: one-task-per-layer graph the policy builds on one thread
GRAPHS = [(2, False), (2, True), (CONF_SEQ_LEN, True)]


def _fingerprint(executor, **build_kwargs):
    build = build_functional(mbs=1, **build_kwargs)
    executor.run(build.graph)
    return _result_fingerprint(build)


@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_tiled_and_paired_graphs_match_the_per_step_graph_on_every_executor(
    cell, head, training
):
    case = dict(cell=cell, head=head, training=training)
    reference = _fingerprint(SerialExecutor(), **case)
    for tile, paired in GRAPHS:
        for name, make in EXECUTORS.items():
            got = _fingerprint(make(), wavefront_tile=tile, paired=paired, **case)
            assert got == reference, (tile, paired, name)


@pytest.mark.parametrize("merge_mode", ["mul", "concat", "avg"])
def test_merge_tiles_keep_every_merge_mode_bitwise(merge_mode):
    case = dict(cell="lstm", head="many_to_many", training=True, merge_mode=merge_mode)
    reference = _fingerprint(SerialExecutor(), **case)
    for tile, paired in GRAPHS:
        assert _fingerprint(ThreadedExecutor(2), wavefront_tile=tile, paired=paired,
                            **case) == reference


def _params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


@pytest.mark.parametrize("executor", list(EXECUTORS), ids=list(EXECUTORS))
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_engine_steps_two_and_three_match_the_oracle(cell, head, executor):
    """Three SGD steps of the default engine (one thread planned: one task
    per layer per pass, paired) land on the oracle's losses and weights at
    every step; its forward then gives the oracle's logits."""
    spec = small_spec(cell=cell, head=head)
    engine = BParEngine(spec, params=BRNNParams.initialize(spec, seed=3),
                        config=ExecutionConfig(executor=EXECUTORS[executor]()))
    oracle = BRNNParams.initialize(spec, seed=3)
    for step in range(3):
        x, labels = make_batch(spec, seq_len=5 + step, seed=step)
        loss = engine.train_batch(x, labels, lr=0.05)
        assert {t.meta["dir"] for t in engine.last_result.graph if t.kind == "cell"} == {"pair"}
        assert loss == reference_train_step(spec, oracle, x, labels, 0.05), step
        assert _params_equal(engine.params, oracle), step
    x, _ = make_batch(spec, seq_len=6, seed=7)
    assert np.array_equal(engine.forward(x), reference_forward(spec, oracle, x)[0])


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_replayed_paired_plans_match_the_oracle(cell, head, n_workers):
    """A compiled paired plan replayed over its cached build: the warm
    second and third batches give the oracle's logits, as the first does."""
    spec = small_spec(cell=cell, head=head)
    engine = InferenceEngine(spec, params=BRNNParams.initialize(spec, 3), config=ExecutionConfig(
        executor="threaded", n_workers=n_workers, compile="on"))
    for bid in range(3):
        batch = make_served_batch(spec, bid, seq_len=5, size=3, seed=bid)
        result = engine.execute(batch)
        assert result.warm == (bid > 0)
        assert result.trace.n_cores == 1
        assert any(r.name.startswith("pair[") for r in result.trace.records)
        want = reference_forward(spec, engine.params, batch.padded_input())[0]
        np.testing.assert_array_equal(result.logits, want)


#: (T, B): one row (NumPy's vector path for every product), odd T (the
#: middle step feeds both directions the same input row) and T=1
EDGE_SHAPES = [(1, 1), (1, 3), (3, 1), (5, 3), (4, 1)]


@pytest.mark.parametrize("hoisted", ["off", "on"])
@pytest.mark.parametrize("executor", ["serial", "threaded1"])
@pytest.mark.parametrize("training", [False, True], ids=["fwd", "train"])
@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=[f"T{t}-B{b}" for t, b in EDGE_SHAPES])
@pytest.mark.parametrize("cell", CELL_TYPES)
def test_paired_graph_is_the_oracle_where_blas_could_route_otherwise(
    cell, shape, training, executor, hoisted
):
    """The stacked products (one ``np.matmul`` over both directions) give the
    oracle's bits on the shapes where the batched GEMM could take another
    BLAS route than the 2-D one: one task per layer per pass, hoisted or
    not (at ``proj_block=1``, where the hoisted backward is the oracle's)."""
    spec = small_spec(cell=cell, head="many_to_many")
    params, oracle = (BRNNParams.initialize(spec, seed=3) for _ in range(2))
    x, labels = make_batch(spec, seq_len=shape[0], batch=shape[1], seed=sum(shape))
    build = build_brnn_graph(
        spec, x=x, labels=labels if training else None, params=params, training=training,
        lr=0.05, fused_input_projection=hoisted, proj_block=1, wavefront_tile=shape[0],
        paired=True,
    )
    assert {t.meta["dir"] for t in build.graph if t.kind == "cell"} == {"pair"}
    EXECUTORS[executor]().run(build.graph)
    if training:
        assert build.mean_loss() == reference_train_step(spec, oracle, x, labels, 0.05)
        assert _params_equal(params, oracle)
    else:
        assert np.array_equal(build.logits(), reference_forward(spec, oracle, x)[0])
