"""Next-character prediction on the synthetic Wikipedia corpus (paper §IV-C).

Trains a many-to-many bidirectional GRU for next-character prediction —
the paper's Fig. 8 workload — and shows per-character perplexity dropping
well below the uniform baseline as the model learns the corpus's digram
statistics.

    python examples/next_char_prediction.py
"""

import numpy as np

from repro import BParEngine, BRNNSpec, ExecutionConfig
from repro.data import SyntheticWikipedia


def main():
    corpus = SyntheticWikipedia(seed=0)
    spec = BRNNSpec(
        cell="gru",
        input_size=corpus.vocab_size,
        hidden_size=64,
        num_layers=2,
        merge_mode="sum",
        head="many_to_many",
        num_classes=corpus.vocab_size,
    )
    print(f"corpus : synthetic Wikipedia ({corpus.vocab_size}-char vocabulary)")
    print(f"sample : {corpus.decode(corpus.sample_text(60, seed=7))!r}")
    print(f"model  : {spec.describe()}")

    engine = BParEngine(
        spec, config=ExecutionConfig(executor="threaded", n_workers=4, mbs=2)
    )
    seq_len, batch = 32, 32
    uniform_ppl = float(corpus.vocab_size)

    print(f"\nuniform-guess perplexity: {uniform_ppl:.1f}")
    print("training (loss is mean cross-entropy per character):")
    ppl = None
    for step in range(120):
        x, y = corpus.batch(batch=batch, seq_len=seq_len, seed=step)
        loss = engine.train_batch(x, y, lr=0.5)
        ppl = float(np.exp(loss))
        if step % 20 == 0 or step == 119:
            print(f"  step {step:3d}  loss {loss:.4f}  perplexity {ppl:6.2f}")

    assert ppl < 0.7 * uniform_ppl, "model failed to beat the uniform baseline"

    # inspect predictions on held-out text
    x, y = corpus.batch(batch=4, seq_len=40, seed=10_000)
    logits = engine.forward(x)
    pred = logits.argmax(axis=2)
    acc = float((pred == y).mean())
    print(f"\nheld-out next-char accuracy: {acc:.2%} "
          f"(chance: {1 / corpus.vocab_size:.2%})")
    print(f"context   : {corpus.decode(x[:, 0].argmax(axis=1))!r}")
    print(f"predicted : {corpus.decode(pred[:, 0])!r}")


if __name__ == "__main__":
    main()
