"""Real-hardware benchmark: B-Par on the host's actual cores.

Unlike the simulated paper reproductions, this bench measures *wall time*
of the threaded executor running real NumPy kernels.  Cell tasks are
GEMM-dominated, and NumPy releases the GIL inside BLAS, so on a multi-core
host barrier-free task parallelism yields genuine speed-up over serial
execution even from pure Python — the laptop-scale version of the paper's
claim.  (On a single-core host the threaded and serial numbers coincide
modulo runtime overhead; no speed-up is asserted.)
"""

import os

import numpy as np
import pytest

from benchmarks.common import emit_bench_json, summarize_times
from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime import SerialExecutor, ThreadedExecutor
from tests.conftest import make_batch  # reuse deterministic batch helper

SPEC = BRNNSpec(
    cell="lstm", input_size=128, hidden_size=192, num_layers=4,
    merge_mode="sum", head="many_to_one", num_classes=11,
)
SEQ_LEN, BATCH = 24, 64

#: per-test wall-clock summaries, flushed to BENCH_threaded_real.json
_RESULTS = {}


def _record(name: str, benchmark) -> None:
    """Summarise this test's raw timings into the module-level record."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:  # --benchmark-disable runs have nothing to record
        return
    _RESULTS[name] = summarize_times(list(stats.stats.data))


@pytest.fixture(scope="module", autouse=True)
def _bench_report():
    """After every test in this module ran, emit the machine-readable record."""
    yield
    if not _RESULTS:
        return
    results = dict(_RESULTS)
    serial = results.get("serial_train_batch")
    threaded = results.get("threaded_train_batch")
    if serial and threaded:
        results["speedup_median"] = {
            "threaded_vs_serial_train": serial["median_s"] / threaded["median_s"]
        }
    emit_bench_json(
        "threaded_real",
        config={
            "cell": SPEC.cell, "input_size": SPEC.input_size,
            "hidden": SPEC.hidden_size, "layers": SPEC.num_layers,
            "head": SPEC.head, "seq_len": SEQ_LEN, "batch": BATCH,
            "workers": min(8, os.cpu_count() or 1),
        },
        results=results,
    )


def _batch():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SEQ_LEN, BATCH, SPEC.input_size)).astype(np.float32)
    labels = rng.integers(0, SPEC.num_classes, size=BATCH)
    return x, labels


def test_threaded_train_batch(benchmark):
    x, labels = _batch()
    workers = min(8, os.cpu_count() or 1)
    engine = BParEngine(
        SPEC, params=BRNNParams.initialize(SPEC, seed=0),
        config=ExecutionConfig(executor=ThreadedExecutor(workers)),
    )
    loss = benchmark(lambda: engine.train_batch(x, labels, lr=0.01))
    assert np.isfinite(loss)
    benchmark.extra_info["workers"] = workers
    _record("threaded_train_batch", benchmark)


def test_serial_train_batch(benchmark):
    x, labels = _batch()
    engine = BParEngine(
        SPEC, params=BRNNParams.initialize(SPEC, seed=0),
        config=ExecutionConfig(executor=SerialExecutor()),
    )
    loss = benchmark(lambda: engine.train_batch(x, labels, lr=0.01))
    assert np.isfinite(loss)
    _record("serial_train_batch", benchmark)


def test_threaded_inference(benchmark):
    x, _ = _batch()
    workers = min(8, os.cpu_count() or 1)
    engine = BParEngine(
        SPEC, params=BRNNParams.initialize(SPEC, seed=0),
        config=ExecutionConfig(executor=ThreadedExecutor(workers)),
    )
    logits = benchmark(lambda: engine.forward(x))
    assert logits.shape == (BATCH, SPEC.num_classes)
    _record("threaded_inference", benchmark)


def test_reference_train_batch(benchmark):
    """The sequential oracle as the no-runtime-overhead baseline."""
    from repro.models.reference import reference_train_step

    x, labels = _batch()
    params = BRNNParams.initialize(SPEC, seed=0)
    loss = benchmark(lambda: reference_train_step(SPEC, params, x, labels, lr=0.01))
    assert np.isfinite(loss)
    _record("reference_train_batch", benchmark)
