"""Quickstart: train a small bidirectional LSTM with B-Par.

Builds a 3-layer BLSTM, trains it for a few batches on synthetic data with
the barrier-free task-parallel engine, and prints what the runtime did:
how many tasks ran, how wide the dependency graph was, and how the loss
moved.  Runs in a few seconds on any machine.

    python examples/quickstart.py
"""

import numpy as np

from repro import BParEngine, BRNNSpec, ExecutionConfig

def main():
    spec = BRNNSpec(
        cell="lstm",          # or "gru"
        input_size=32,
        hidden_size=64,
        num_layers=3,
        merge_mode="sum",     # Eq. (11): sum / mul / avg / concat
        head="many_to_one",   # sequence classification
        num_classes=10,
    )
    print(f"model: {spec.describe()}")

    engine = BParEngine(
        spec, config=ExecutionConfig(executor="threaded", n_workers=4, mbs=2)
    )

    rng = np.random.default_rng(0)
    seq_len, batch = 20, 32

    def make_batch(seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((seq_len, batch, spec.input_size)).astype(np.float32)
        # a learnable rule: the class is encoded as a bias on one feature
        labels = r.integers(0, spec.num_classes, size=batch)
        x[:, :, 0] += (labels - 4.5).astype(np.float32)
        return x, labels

    print("\ntraining:")
    for step in range(40):
        x, labels = make_batch(step)
        loss = engine.train_batch(x, labels, lr=0.15)
        if step % 5 == 0 or step == 39:
            print(f"  step {step:2d}  loss {loss:.4f}")

    x, labels = make_batch(999)
    logits = engine.forward(x)
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    print(f"\nheld-out accuracy: {accuracy:.2%} (chance: 10%)")

    trace = engine.last_trace
    graph = engine.last_result.graph
    print("\nwhat the runtime did for the last batch:")
    print(f"  tasks executed        : {trace.num_tasks()}")
    print(f"  dependency edges      : {graph.num_edges()}")
    print(f"  max graph wavefront   : {graph.max_wavefront()} tasks runnable at once")
    print(f"  peak real concurrency : {trace.peak_concurrency()} tasks in flight")
    print(f"  parallel efficiency   : {trace.parallel_efficiency():.2f}")

    from repro.analysis.traceviz import ascii_timeline

    print("\nper-core timeline of the last batch (# = busy):")
    print(ascii_timeline(trace, width=72))
    # export for chrome://tracing with:
    #   from repro.analysis.traceviz import save_chrome_trace
    #   save_chrome_trace(trace, "bpar_trace.json")


if __name__ == "__main__":
    main()
