"""Speech recognition on the synthetic TIDIGITS corpus (paper §IV-B task).

Trains a many-to-one BLSTM to classify connected-digit utterances by their
final digit, using variable-length utterances bucketed into homogeneous
batches — the task graph is rebuilt per batch, exactly the dynamic-shape
behaviour §III-B describes.  Also compares B-Par against B-Seq wall time
on this host.

    python examples/speech_recognition.py
"""

import time

import numpy as np

from repro import BParEngine, BRNNSpec, BSeqEngine, ExecutionConfig, Trainer
from repro.data import SyntheticTidigits, iterate_batches


def main():
    corpus = SyntheticTidigits(seed=0)
    spec = BRNNSpec(
        cell="lstm",
        input_size=corpus.num_features,
        hidden_size=64,
        num_layers=2,
        merge_mode="sum",
        head="many_to_one",
        num_classes=corpus.num_classes,
    )
    print(f"corpus : synthetic TIDIGITS ({corpus.num_classes} digit classes)")
    print(f"model  : {spec.describe()}")

    train_x, train_y = corpus.generate(600, seed=1)
    test_x, test_y = corpus.generate(200, seed=2)
    lengths = [x.shape[0] for x in train_x]
    print(f"utterance lengths: {min(lengths)}-{max(lengths)} frames (variable)")

    engine = BParEngine(
        spec, config=ExecutionConfig(executor="threaded", n_workers=4, mbs=2, seed=0)
    )
    trainer = Trainer(engine, lr=0.2)

    def batches(xs, ys, seed):
        return list(iterate_batches(xs, ys, batch_size=32, bucket_width=16, seed=seed))

    print("\ntraining (per-batch graphs adapt to each bucket's length):")
    for epoch in range(7):
        trainer.fit(batches(train_x, train_y, seed=epoch), epochs=1)
        acc = trainer.evaluate(batches(test_x, test_y, seed=0))
        print(f"  epoch {epoch}: loss {trainer.history.epoch_losses[-1]:.4f}  "
              f"test accuracy {acc:.2%}")

    assert trainer.history.epoch_accuracies[-1] > 2.0 / corpus.num_classes, \
        "model failed to beat chance"

    # B-Par vs B-Seq on the same work, real wall time on this host.
    # On a single-core host the two coincide; with more cores B-Par's extra
    # model parallelism shows up as wall-time speed-up (the simulated
    # 48-core comparison lives in examples/simulated_48core_machine.py).
    import os

    print(f"\nB-Par vs B-Seq wall time on this host ({os.cpu_count()} CPU(s)):")
    bench_batches = batches(train_x[:200], train_y[:200], seed=9)
    for cls in (BParEngine, BSeqEngine):
        eng = cls(
            spec,
            config=ExecutionConfig(executor="threaded", n_workers=4, mbs=4, seed=0),
        )
        t0 = time.perf_counter()
        for x, y in bench_batches:
            eng.train_batch(x, y, lr=0.05)
        dt = time.perf_counter() - t0
        print(f"  {eng.name:6s}: {dt:.2f}s")


if __name__ == "__main__":
    main()
