"""Engine API tests: B-Par / B-Seq front-ends and the trainer."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, BSeqEngine, Trainer, accuracy
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime import ThreadedExecutor
from tests.conftest import make_batch, small_spec


def engine(spec, **kw):
    kw.setdefault("executor", ThreadedExecutor(4))
    return BParEngine(spec, config=ExecutionConfig(**kw))


def test_default_engine_construction(spec):
    e = BParEngine(spec)
    assert e.params is not None
    assert e.executor.n_workers >= 1


def test_forward_returns_logits(spec):
    x, _ = make_batch(spec)
    logits = engine(spec).forward(x)
    assert logits.shape == (8, spec.num_classes)
    assert np.all(np.isfinite(logits))


def test_train_batch_returns_finite_loss(spec):
    x, labels = make_batch(spec)
    loss = engine(spec).train_batch(x, labels, lr=0.1)
    assert np.isfinite(loss) and loss > 0


def test_last_trace_populated(spec):
    x, labels = make_batch(spec)
    e = engine(spec)
    e.train_batch(x, labels)
    assert e.last_trace is not None
    assert e.last_trace.num_tasks() == len(e.last_result.graph)


def test_training_reduces_loss(spec):
    x, labels = make_batch(spec, batch=16)
    e = engine(spec)
    losses = [e.train_batch(x, labels, lr=0.5) for _ in range(15)]
    assert losses[-1] < losses[0]


def test_bseq_engine_name_and_serialization(spec):
    e = BSeqEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2))
    assert e.name == "B-Seq"
    x, labels = make_batch(spec)
    e.train_batch(x, labels)
    # the built graph must be chunk-serialised
    assert e.last_result.graph.max_wavefront() <= 3


def test_build_cost_graph(spec):
    res = build_brnn_graph(spec, seq_len=6, batch=8, mbs=2, training=True)
    assert not res.functional
    assert len(res.graph) > 0


def test_accuracy_m2o():
    logits = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert accuracy(logits, np.array([1, 0])) == 1.0
    assert accuracy(logits, np.array([0, 0])) == 0.5


def test_accuracy_m2m():
    logits = np.zeros((2, 2, 3))
    logits[..., 1] = 1.0
    labels = np.ones((2, 2), dtype=int)
    assert accuracy(logits, labels) == 1.0


def test_trainer_fit_and_history(spec):
    e = engine(spec)
    batches = [make_batch(spec, seed=i) for i in range(3)]
    trainer = Trainer(e, lr=0.2)
    history = trainer.fit(batches, epochs=2)
    assert len(history.batch_losses) == 6
    assert len(history.epoch_losses) == 2
    assert history.epoch_losses[1] < history.epoch_losses[0]


def test_trainer_evaluate(spec):
    e = engine(spec)
    batches = [make_batch(spec, seed=i) for i in range(2)]
    trainer = Trainer(e, lr=0.2)
    acc = trainer.evaluate(batches)
    assert 0.0 <= acc <= 1.0
    assert trainer.history.epoch_accuracies == [acc]


def test_trainer_learns_separable_toy_problem():
    """End-to-end sanity: B-Par training actually fits an easy task."""
    spec = small_spec(hidden_size=8, num_layers=2, num_classes=2)
    rng = np.random.default_rng(0)
    # class = sign of the mean of the (single-feature-band) input
    def gen(seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((6, 16, spec.input_size)).astype(np.float32)
        labels = (x[:, :, 0].mean(axis=0) > 0).astype(np.int64)
        x[:, :, 0] += 2.0 * (2 * labels - 1)  # boost separability
        return x.astype(np.float32), labels

    e = engine(spec)
    trainer = Trainer(e, lr=0.3)
    trainer.fit([gen(s) for s in range(4)], epochs=6)
    acc = trainer.evaluate([gen(100)])
    assert acc >= 0.9


def test_mbs_clamped_to_short_batch(spec):
    """A trailing batch smaller than mbs gets fewer chunks, not an error."""
    x, labels = make_batch(spec, batch=2)
    e = engine(spec, mbs=4)
    loss = e.train_batch(x, labels)
    assert np.isfinite(loss)
    assert e.last_result.mbs == 2
