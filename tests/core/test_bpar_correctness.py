"""B-Par vs sequential oracle: the paper's no-accuracy-loss claim.

With ``mbs=1`` every output, loss value, gradient array, and post-update
weight must be **bitwise identical** to the sequential reference under any
executor, scheduler, and worker count.  With ``mbs>1`` the chunked GEMMs
legitimately reassociate sums, so results are allclose — but still
deterministic (bitwise identical across schedules).
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine, BSeqEngine
from repro.models.params import BRNNParams
from repro.models.reference import reference_loss_and_grads, reference_train_step
from repro.runtime import SerialExecutor, SimulatedExecutor, ThreadedExecutor
from repro.runtime.scheduler import FIFOScheduler, LIFOScheduler
from repro.simarch.presets import laptop_sim
from tests.conftest import make_batch, small_spec

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")


def oracle(spec, x, labels, seed=3):
    params = BRNNParams.initialize(spec, seed=seed)
    return reference_loss_and_grads(spec, params.copy(), x, labels)


def grads_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays(), b.arrays()))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
def test_bitwise_equal_threaded(cell, head):
    spec = small_spec(cell=cell, head=head)
    x, labels = make_batch(spec)
    ref_loss, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    loss, logits, grads = engine.loss_and_grads(x, labels)
    assert loss == ref_loss
    assert np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


@pytest.mark.parametrize("merge", ["sum", "concat", "avg", "mul"])
def test_bitwise_equal_all_merge_modes(merge):
    spec = small_spec(merge_mode=merge, num_layers=2)
    x, labels = make_batch(spec)
    ref_loss, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(3)),
    )
    loss, logits, grads = engine.loss_and_grads(x, labels)
    assert loss == ref_loss and np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


@pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
def test_bitwise_equal_any_worker_count(n_workers):
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(n_workers)),
    )
    _, logits, grads = engine.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


@pytest.mark.parametrize("scheduler", ["fifo", "lifo", "locality", "steal"])
def test_bitwise_equal_simulated_any_scheduler(scheduler):
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, ref_grads = oracle(spec, x, labels)
    sim = SimulatedExecutor(laptop_sim(4), scheduler=scheduler, execute_payloads=True)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=sim),
    )
    _, logits, grads = engine.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


def test_bitwise_equal_serial_executor():
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=SerialExecutor()),
    )
    _, logits, grads = engine.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


def test_train_step_updates_weights_identically():
    spec = small_spec()
    x, labels = make_batch(spec)
    p_ref = BRNNParams.initialize(spec, seed=3)
    p_bpar = p_ref.copy()
    ref_loss = reference_train_step(spec, p_ref, x, labels, lr=0.1)
    engine = BParEngine(
        spec, params=p_bpar,
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    loss = engine.train_batch(x, labels, lr=0.1)
    assert loss == ref_loss
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p_ref.arrays(), p_bpar.arrays()))


def test_multi_step_training_stays_bitwise_identical():
    spec = small_spec()
    p_ref = BRNNParams.initialize(spec, seed=3)
    p_bpar = p_ref.copy()
    engine = BParEngine(
        spec, params=p_bpar,
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    for step in range(5):
        x, labels = make_batch(spec, seed=step)
        l_ref = reference_train_step(spec, p_ref, x, labels, lr=0.05)
        l_bpar = engine.train_batch(x, labels, lr=0.05)
        assert l_ref == l_bpar, f"diverged at step {step}"
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p_ref.arrays(), p_bpar.arrays()))


def test_forward_only_bitwise():
    spec = small_spec()
    x, _ = make_batch(spec)
    params = BRNNParams.initialize(spec, seed=3)
    from repro.models.reference import reference_forward

    ref_logits, _ = reference_forward(spec, params.copy(), x)
    engine = BParEngine(
        spec, params=params.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(4)),
    )
    assert np.array_equal(engine.forward(x), ref_logits)


@pytest.mark.parametrize("mbs", [2, 4])
def test_mbs_allclose_and_deterministic(mbs):
    spec = small_spec()
    x, labels = make_batch(spec, batch=8)
    ref_loss, ref_logits, ref_grads = oracle(spec, x, labels)
    runs = []
    for executor in (ThreadedExecutor(4), ThreadedExecutor(2), SerialExecutor()):
        engine = BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3),
            config=ExecutionConfig(executor=executor, mbs=mbs),
        )
        runs.append(engine.loss_and_grads(x, labels))
    loss0, logits0, grads0 = runs[0]
    assert abs(loss0 - ref_loss) < 1e-5
    assert np.allclose(logits0, ref_logits, atol=1e-5)
    assert grads0.allclose(ref_grads, atol=1e-3)
    # chunked execution is still schedule-deterministic (dataflow)
    for loss_i, logits_i, grads_i in runs[1:]:
        assert loss_i == loss0
        assert np.array_equal(logits_i, logits0)
        assert grads_equal(grads_i, grads0)


def test_bseq_matches_bpar_chunking():
    spec = small_spec()
    x, labels = make_batch(spec, batch=8)
    p = BRNNParams.initialize(spec, seed=3)
    bpar = BParEngine(
        spec, params=p.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(4), mbs=4),
    )
    bseq = BSeqEngine(
        spec, params=p.copy(),
        config=ExecutionConfig(executor=ThreadedExecutor(4), mbs=4),
    )
    l1, lg1, g1 = bpar.loss_and_grads(x, labels)
    l2, lg2, g2 = bseq.loss_and_grads(x, labels)
    # identical chunking => identical numbers, B-Seq just schedules serially
    assert l1 == l2
    assert np.array_equal(lg1, lg2)
    assert grads_equal(g1, g2)


def test_barriered_bpar_still_bitwise_equal():
    """Per-layer barriers change scheduling, never results."""
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, ref_grads = oracle(spec, x, labels)
    engine = BParEngine(
        spec, params=BRNNParams.initialize(spec, seed=3),
        config=ExecutionConfig(executor=ThreadedExecutor(4), barrier_free=False),
    )
    _, logits, grads = engine.loss_and_grads(x, labels)
    assert np.array_equal(logits, ref_logits)
    assert grads_equal(grads, ref_grads)


def test_custom_scheduler_factory_threaded():
    spec = small_spec()
    x, labels = make_batch(spec)
    _, ref_logits, _ = oracle(spec, x, labels)
    for factory in (FIFOScheduler, LIFOScheduler):
        engine = BParEngine(
            spec, params=BRNNParams.initialize(spec, seed=3),
            config=ExecutionConfig(
                executor=ThreadedExecutor(4, scheduler_factory=factory)
            ),
        )
        _, logits, _ = engine.loss_and_grads(x, labels)
        assert np.array_equal(logits, ref_logits)
