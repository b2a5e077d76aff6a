"""Integration tests: datasets → engines → training, end to end."""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, BSeqEngine, Trainer
from repro.data import SyntheticTidigits, SyntheticWikipedia, iterate_batches, pad_sequences
from repro.models.spec import BRNNSpec
from repro.runtime import ThreadedExecutor


def test_tidigits_training_improves():
    corpus = SyntheticTidigits(seed=0)
    spec = BRNNSpec(cell="lstm", input_size=corpus.num_features, hidden_size=24,
                    num_layers=2, merge_mode="sum", head="many_to_one",
                    num_classes=corpus.num_classes)
    xs, ys = corpus.generate(120, seed=1)
    engine = BParEngine(
        spec, config=ExecutionConfig(executor=ThreadedExecutor(4), mbs=2, seed=0)
    )
    trainer = Trainer(engine, lr=0.15)
    batches = list(iterate_batches(xs, ys, batch_size=24, bucket_width=20, seed=0))
    trainer.fit(batches, epochs=3)
    assert trainer.history.epoch_losses[-1] < trainer.history.epoch_losses[0]


def test_variable_sequence_lengths_across_batches():
    """§III-B: the task graph is rebuilt per batch for new sequence lengths."""
    spec = BRNNSpec(cell="gru", input_size=8, hidden_size=10, num_layers=2,
                    merge_mode="sum", head="many_to_one", num_classes=3)
    engine = BParEngine(
        spec, config=ExecutionConfig(executor=ThreadedExecutor(2), mbs=2, seed=0)
    )
    rng = np.random.default_rng(0)
    task_counts = []
    for seq_len in (3, 11, 6, 25):
        x = rng.standard_normal((seq_len, 6, 8)).astype(np.float32)
        labels = rng.integers(0, 3, size=6)
        loss = engine.train_batch(x, labels, lr=0.05)
        assert np.isfinite(loss)
        task_counts.append(len(engine.last_result.graph))
    # longer sequences -> more tasks, graph genuinely rebuilt each time
    assert task_counts[3] > task_counts[0]
    assert len(set(task_counts)) >= 3


def test_wikipedia_m2m_training_improves():
    corpus = SyntheticWikipedia(seed=0)
    spec = BRNNSpec(cell="gru", input_size=corpus.vocab_size, hidden_size=24,
                    num_layers=2, merge_mode="sum", head="many_to_many",
                    num_classes=corpus.vocab_size)
    engine = BParEngine(
        spec, config=ExecutionConfig(executor=ThreadedExecutor(4), mbs=2, seed=0)
    )
    losses = []
    for step in range(10):
        x, y = corpus.batch(batch=16, seq_len=12, seed=step)
        losses.append(engine.train_batch(x, y, lr=0.5))
    assert losses[-1] < losses[0]


def test_bpar_and_bseq_train_to_identical_weights():
    """Same chunking, different schedules: identical training trajectory."""
    corpus = SyntheticTidigits(seed=1)
    spec = BRNNSpec(cell="lstm", input_size=corpus.num_features, hidden_size=12,
                    num_layers=2, merge_mode="sum", head="many_to_one",
                    num_classes=corpus.num_classes)
    utterances, y = corpus.generate(16, seed=5)
    x, _ = pad_sequences(utterances)
    engines = [
        cls(spec, config=ExecutionConfig(executor=ThreadedExecutor(3), mbs=4, seed=7))
        for cls in (BParEngine, BSeqEngine)
    ]
    for _ in range(3):
        losses = [e.train_batch(x, y, lr=0.1) for e in engines]
        assert losses[0] == losses[1]
    a, b = engines
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.params.arrays(), b.params.arrays()))


def test_inference_after_training_consistent_across_executors():
    spec = BRNNSpec(cell="lstm", input_size=8, hidden_size=10, num_layers=2,
                    merge_mode="concat", head="many_to_one", num_classes=4)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 4, size=8)
    e1 = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(1), seed=5))
    e2 = BParEngine(spec, config=ExecutionConfig(executor=ThreadedExecutor(6), seed=5))
    for e in (e1, e2):
        e.train_batch(x, labels, lr=0.1)
    assert np.array_equal(e1.forward(x), e2.forward(x))
