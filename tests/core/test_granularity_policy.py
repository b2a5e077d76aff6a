"""The granularity policy (``plan_granularity``, docs/PERF.md).

One decision per batch shape, before any graph exists: the threads the
executor will start, the hoisted layers, the chain tile and the pairing.  A
shape a host executor runs on no more threads than a layer has chains
(``2·mbs``) is built as one task per chain (the chain tile spans the
sequence, the merges follow it); on one thread the forward chains are also
paired, which makes one task per layer per pass.  Everything else keeps the
paper's task per cell update.  Everything here is clock-free: the policy is
analytic, and neither a tile nor a pairing changes the bits.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, BSeqEngine, graph_builder
from repro.core.graph_builder import plan_granularity
from repro.models.params import BRNNParams
from repro.models.reference import reference_forward, reference_train_step
from repro.models.spec import BRNNSpec
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.serve.engine import InferenceEngine
from repro.simarch.costmodel import GEMM_KINDS
from tests.conftest import make_batch, small_spec
from tests.core.test_fusion import grads_bitwise
from tests.core.test_graph_builder import cell_tiles
from tests.serve.test_engine_compile import make_batch as make_served_batch
from tools.graph_digest import MATRICES, SEQ_LEN, build

#: the three model shapes of bench/workloads.py
_GEMM = BRNNSpec(cell="lstm", input_size=128, hidden_size=256, num_layers=3,
                 head="many_to_one", num_classes=11)
_FINE = BRNNSpec(cell="lstm", input_size=39, hidden_size=32, num_layers=4,
                 head="many_to_one", num_classes=11)
_SERVED = BRNNSpec(cell="lstm", input_size=39, hidden_size=128, num_layers=2,
                   head="many_to_one", num_classes=11)
#: above the thread floor on a single row
_WIDE = BRNNSpec(cell="lstm", input_size=1024, hidden_size=1024, num_layers=1,
                 head="many_to_one", num_classes=11)

#: (case, spec, rows, seq_len, training, n_workers, executor, config,
#: expected (mbs, threads, hoisted, tile, paired)): the five benchmark workloads,
#: then the substrates and overrides around them
TABLE = [
    ("train_gemm", _GEMM, 64, 32, True, 2, "threaded", ExecutionConfig(mbs=2),
     (2, 2, [True] * 3, 32, False)),
    ("infer_fine", _FINE, 4, 100, False, 2, "threaded", ExecutionConfig(),
     (1, 1, [False] * 4, 100, True)),
    ("serve_poisson", _SERVED, 8, 60, False, 1, "threaded", ExecutionConfig(),
     (1, 1, [False] * 2, 60, True)),
    ("serve_overload", _SERVED, 8, 60, False, 48, "sim", ExecutionConfig(),
     (1, 48, [False] * 2, 1, False)),
    ("train_gemm_process", _GEMM, 64, 32, True, 2, "process", ExecutionConfig(mbs=2),
     (2, 2, [True] * 3, 1, False)),
    # the simulator and the process executor keep the paper's graph on one core too
    ("sim_one_core", _FINE, 4, 100, False, 1, "sim", ExecutionConfig(),
     (1, 1, [False] * 4, 1, False)),
    ("process_one_worker", _FINE, 4, 100, False, 1, "process", ExecutionConfig(),
     (1, 1, [False] * 4, 1, False)),
    # a GEMM-heavy shape on one worker or the serial executor: one thread
    ("one_worker", _GEMM, 64, 32, True, 1, "threaded", ExecutionConfig(mbs=2),
     (2, 1, [True] * 3, 32, True)),
    ("serial", _GEMM, 64, 32, True, 1, SerialExecutor(), ExecutionConfig(mbs=2),
     (2, 1, [True] * 3, 32, True)),
    ("threaded_instance", _FINE, 4, 100, False, 2, ThreadedExecutor(2),
     ExecutionConfig(), (1, 1, [False] * 4, 100, True)),
    # the overrides: a tile, each hoisting mode, barriers
    ("tile_1", _FINE, 4, 100, False, 2, "threaded", ExecutionConfig(wavefront_tile=1),
     (1, 1, [False] * 4, 1, True)),
    ("tile_8", _GEMM, 64, 32, True, 2, "threaded",
     ExecutionConfig(mbs=2, wavefront_tile=8), (2, 2, [True] * 3, 8, False)),
    ("proj_on", _FINE, 4, 100, False, 2, "threaded",
     ExecutionConfig(fused_input_projection="on"), (1, 1, [True] * 4, 100, True)),
    ("proj_off", _GEMM, 64, 32, True, 2, "threaded",
     ExecutionConfig(mbs=2, fused_input_projection="off"), (2, 2, [False] * 3, 32, False)),
    # one thread, but the barriered graph: no pairing
    ("barriered", _FINE, 4, 100, False, 2, "threaded",
     ExecutionConfig(barrier_free=False), (1, 1, [False] * 4, 100, False)),
    # a batch shorter than mbs gets one chunk per row
    ("short_batch", _FINE, 1, 100, False, 2, "threaded", ExecutionConfig(mbs=2),
     (1, 1, [False] * 4, 100, True)),
    # more threads than a layer's 2·mbs chains: the paper's graph, else one
    # task per chain, unpaired (barriered or not)
    ("four_workers_mbs_1", _GEMM, 64, 32, True, 4, "threaded", ExecutionConfig(mbs=1),
     (1, 4, [True] * 3, 1, False)),
    ("four_workers_mbs_2", _GEMM, 64, 32, True, 4, "threaded", ExecutionConfig(mbs=2),
     (2, 4, [True] * 3, 32, False)),
    ("barriered_two_threads", _GEMM, 64, 32, True, 2, "threaded",
     ExecutionConfig(mbs=2, barrier_free=False), (2, 2, [True] * 3, 32, False)),
    # the chains are counted after mbs is clamped to the batch
    ("clamped_mbs_four_workers", _WIDE, 1, 32, True, 4, "threaded", ExecutionConfig(mbs=2),
     (1, 4, [True], 1, False)),
    ("unclamped_mbs_four_workers", _WIDE, 2, 32, True, 4, "threaded", ExecutionConfig(mbs=2),
     (2, 4, [True], 32, False)),
]


@pytest.mark.parametrize("case", TABLE, ids=[row[0] for row in TABLE])
def test_policy_table(case):
    _, spec, rows, seq_len, training, n_workers, executor, config, expected = case
    plan = plan_granularity(spec, rows, seq_len, training, n_workers, executor, config)
    assert tuple(plan) == expected


def _configs():
    for name, matrix in MATRICES.items():
        for i, cfg in enumerate(matrix()):
            yield pytest.param(cfg, id=f"{name}-{i}")


@pytest.mark.parametrize("cfg", list(_configs()))
def test_floor_is_the_same_from_the_spec_and_at_every_tile(cfg):
    """The policy's hoisting decision, taken from the spec, is the build's,
    and a whole-chain tile carries the GEMM flops of the steps it covers:
    the work per cell step the thread decision reads is tile-invariant."""
    per_step = build({**cfg, "wavefront_tile": 1}, functional=False)
    whole = build({**cfg, "wavefront_tile": SEQ_LEN}, functional=False)
    assert whole.wavefront_tile == SEQ_LEN and per_step.wavefront_tile is None
    config = ExecutionConfig(mbs=per_step.mbs, fused_input_projection=cfg["fused"])
    plan = plan_granularity(
        per_step.spec, per_step.total_batch, SEQ_LEN, per_step.training, 1, "sim", config
    )
    assert plan.hoisted == per_step.fused_layers

    def gemm_flops(graph):
        return sum(t.flops for t in graph if t.kind in GEMM_KINDS)

    assert gemm_flops(whole.graph) == gemm_flops(per_step.graph)


# -- engine conformance: the policy's graph has the per-step graph's bits ------


def _engine(cls, spec, **config):
    return cls(
        spec,
        params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor="threaded", n_workers=2, **config),
    )


@pytest.mark.parametrize("cls", [BParEngine, BSeqEngine])
@pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
def test_default_engine_logits_bitwise_equal_to_the_oracle(cls, cell):
    spec = small_spec(cell=cell)
    x, _ = make_batch(spec, seq_len=6)
    engine = _engine(cls, spec)
    logits = engine.forward(x)
    assert cell_tiles(engine) == {(0, 6)}
    assert engine.last_trace.n_cores == 1
    assert np.array_equal(logits, reference_forward(spec, engine.params, x)[0])


@pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
def test_default_engine_training_bitwise_equal_to_tile_one(cell, head):
    spec = small_spec(cell=cell, head=head)
    x, labels = make_batch(spec, seq_len=6)
    default = _engine(BParEngine, spec, mbs=2)
    loss, logits, grads = default.loss_and_grads(x, labels)
    assert cell_tiles(default) == {(0, 6)}
    per_step = _engine(BParEngine, spec, mbs=2, wavefront_tile=1)
    ref_loss, ref_logits, ref_grads = per_step.loss_and_grads(x, labels)
    assert cell_tiles(per_step) == {(s, s + 1) for s in range(6)}
    assert loss == ref_loss
    assert np.array_equal(logits, ref_logits)
    assert grads_bitwise(grads, ref_grads)
    # and a step of SGD lands on the same weights
    default.train_batch(x, labels)
    per_step.train_batch(x, labels)
    assert grads_bitwise(default.params, per_step.params)


def test_one_worker_inference_engine_replays_tiled_plans_bitwise():
    """``n_workers=1`` with compiled plans (the ``serve_poisson`` setting):
    every shape is built per chain, and warm replays over mixed shapes give
    the tile-1 engine's logits."""
    spec = small_spec(num_layers=2, hidden_size=4, input_size=5, num_classes=3,
                      head="many_to_many")
    base = ExecutionConfig(executor="threaded", n_workers=1, compile="on")
    tiled = InferenceEngine(spec, config=base, params=BRNNParams.initialize(spec, 3))
    per_step = InferenceEngine(spec, config=base.replace(wavefront_tile=1),
                               params=tiled.params)
    shapes = [(4, 3), (7, 2), (4, 3), (7, 2), (5, 1), (4, 3)]
    for bid, (seq_len, size) in enumerate(shapes):
        batch = make_served_batch(spec, bid, seq_len=seq_len, size=size, seed=bid)
        got, want = tiled.execute(batch), per_step.execute(batch)
        assert got.warm == want.warm
        assert got.trace.num_tasks() < want.trace.num_tasks()
        np.testing.assert_array_equal(got.logits, want.logits)
    assert tiled.plan_cache.stats()["hits"] == 3


def test_real_threads_plan_every_worker_and_the_per_step_graph(real_threads):
    """With the floor taken away, concurrency suites still get per-step
    graphs on real threads, although two threads are no more than a layer's
    chains, where the policy on its own builds one task per chain."""
    for spec, rows, seq_len in ((_FINE, 4, 100), (small_spec(), 8, 5)):
        plan = graph_builder.plan_granularity(spec, rows, seq_len, False, 2, "threaded")
        assert (plan.threads, plan.tile) == (2, 1)
        assert plan_granularity(spec, rows, seq_len, False, 2, "threaded").tile == seq_len
    x, labels = make_batch(small_spec())
    for cls in (BParEngine, BSeqEngine):
        for mbs in (1, 2):
            engine = _engine(cls, small_spec(), mbs=mbs)
            for step in (lambda: engine.forward(x), lambda: engine.train_batch(x, labels)):
                step()
                assert engine.last_trace.n_cores == 2
                assert all(hi - lo == 1 for lo, hi in cell_tiles(engine))


# -- two threads, one task per chain: the per-step graph's and the oracle's bits


@pytest.mark.parametrize("cls", [BParEngine, BSeqEngine])
@pytest.mark.parametrize("mbs", [1, 2])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_two_thread_chain_tasks_match_the_per_step_graph_and_the_oracle(
    monkeypatch, cell, head, mbs, cls
):
    """With the floor at 0 the default policy gives a tiny model what it
    gives ``train_gemm``: two threads, one unpaired task per chain.  Three
    steps of such an engine, rebound into one build, land on the losses
    and weights of the same engine at ``wavefront_tile=1`` and,
    on one chunk, of the oracle; its forward then gives their logits."""
    monkeypatch.setattr(graph_builder, "MIN_GEMM_FLOPS_PER_CELL_STEP", 0.0)
    spec = small_spec(cell=cell, head=head)
    tiled, per_step = (
        cls(spec, params=BRNNParams.initialize(spec, seed=3),
            config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=mbs, wavefront_tile=tile))
        for tile in (None, 1)
    )
    oracle = BRNNParams.initialize(spec, seed=3)
    builds = []
    for step in range(3):
        x, labels = make_batch(spec, seq_len=6, seed=step)
        loss = tiled.train_batch(x, labels, lr=0.05)
        assert tiled.granularity[1:] == (2, [False] * 3, 6, False)
        assert cell_tiles(tiled) == {(0, 6)} and tiled.last_trace.n_cores == 2
        assert loss == per_step.train_batch(x, labels, lr=0.05), step
        assert cell_tiles(per_step) == {(s, s + 1) for s in range(6)}
        assert grads_bitwise(tiled.params, per_step.params), step
        if mbs == 1:
            assert loss == reference_train_step(spec, oracle, x, labels, 0.05), step
            assert grads_bitwise(tiled.params, oracle), step
        builds.append(tiled.last_result)
    assert builds[1] is builds[0] and builds[2] is builds[0]
    x, _ = make_batch(spec, seq_len=6, seed=7)
    logits = tiled.forward(x)
    assert cell_tiles(tiled) == {(0, 6)}
    assert np.array_equal(logits, per_step.forward(x))
    assert np.array_equal(logits, reference_forward(spec, tiled.params, x)[0])
