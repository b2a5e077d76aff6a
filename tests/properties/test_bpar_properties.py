"""Property-based end-to-end tests: random BRNN shapes through B-Par.

The heavyweight invariant of the whole system: for any random architecture
and input, B-Par under a random scheduler/worker count computes bitwise the
same results as the sequential oracle (mbs=1), and the task graph has the
analytically expected size.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.reference import reference_loss_and_grads
from repro.models.spec import CELL_TYPES, BRNNSpec
from repro.runtime import ThreadedExecutor
from repro.runtime.simexec import SimulatedExecutor
from tests.conftest import laptop_sim


@st.composite
def random_case(draw):
    spec = BRNNSpec(
        cell=draw(st.sampled_from(CELL_TYPES)),
        input_size=draw(st.integers(1, 6)),
        hidden_size=draw(st.integers(1, 6)),
        num_layers=draw(st.integers(1, 4)),
        merge_mode=draw(st.sampled_from(["sum", "concat", "avg"])),
        head=draw(st.sampled_from(["many_to_one", "many_to_many"])),
        num_classes=draw(st.integers(2, 5)),
        dtype=np.float32,
    )
    seq_len = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(np.float32)
    if spec.head == "many_to_one":
        labels = rng.integers(0, spec.num_classes, size=batch)
    else:
        labels = rng.integers(0, spec.num_classes, size=(seq_len, batch))
    return spec, x, labels, seed


@given(random_case(), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_bpar_bitwise_equals_oracle(case, workers):
    spec, x, labels, seed = case
    params = BRNNParams.initialize(spec, seed=seed)
    ref_loss, ref_logits, ref_grads = reference_loss_and_grads(
        spec, params.copy(), x, labels
    )
    engine = BParEngine(
        spec, params=params.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(workers)),
    )
    loss, logits, grads = engine.loss_and_grads(x, labels)
    assert loss == ref_loss
    assert np.array_equal(logits, ref_logits)
    for (_, a), (_, b) in zip(grads.arrays(), ref_grads.arrays()):
        assert np.array_equal(a, b)


@given(random_case(), st.sampled_from(["fifo", "fuzz:1", "locality", "fuzz:2"]))
@settings(max_examples=15, deadline=None)
def test_bpar_bitwise_under_simulated_schedules(case, policy):
    spec, x, labels, seed = case
    params = BRNNParams.initialize(spec, seed=seed)
    _, ref_logits, ref_grads = reference_loss_and_grads(spec, params.copy(), x, labels)
    sim = SimulatedExecutor(laptop_sim(4), scheduler=policy, execute_payloads=True)
    engine = BParEngine(
        spec, params=params.copy(),
        config=ExecutionConfig(executor=sim),
    )
    _, logits, grads = engine.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    for (_, a), (_, b) in zip(grads.arrays(), ref_grads.arrays()):
        assert np.array_equal(a, b)


@given(random_case())
@settings(max_examples=30, deadline=None)
def test_graph_task_count_formula(case):
    """Closed-form task counts for the m2o/m2m training graph."""
    spec, x, labels, _ = case
    T, B = x.shape[0], x.shape[1]
    res = build_brnn_graph(spec, seq_len=T, batch=B, training=True)
    L = spec.num_layers
    n_slots = 1 if spec.head == "many_to_one" else T
    expected = (
        2 * L * T          # forward cells
        + (L - 1) * T      # intermediate merges
        + n_slots          # last merges
        + n_slots          # head
        + n_slots          # loss
        + n_slots          # head_bwd
        + n_slots          # last merge bwd
        + 2 * L * T        # backward cells
        + (L - 1) * T      # merge bwd
        + 2 * L + 1        # weight updates
    )
    assert len(res.graph) == expected
    assert res.graph.validate_acyclic()


@given(random_case(), st.integers(2, 4))
@settings(max_examples=15, deadline=None)
def test_mbs_chunks_deterministic_and_close(case, mbs):
    spec, x, labels, seed = case
    if x.shape[1] < mbs:
        return  # cannot split
    params = BRNNParams.initialize(spec, seed=seed)
    ref_loss, ref_logits, _ = reference_loss_and_grads(spec, params.copy(), x, labels)
    runs = []
    for workers in (1, 3):
        engine = BParEngine(
            spec, params=params.copy(),
            config=ExecutionConfig(executor=ThreadedExecutor(workers), mbs=mbs),
        )
        runs.append(engine.loss_and_grads(x, labels))
    assert np.allclose(runs[0][1], ref_logits, atol=1e-4)
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
