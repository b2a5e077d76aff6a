"""The process executor ships nothing between workers.

Every array a build holds (params, gradients, inputs, every block of the
chunks, the cell caches' among them) is mapped into the one shared state
arena before the workers fork, and no payload rebinds storage: a task
writes its slots where every worker reads them, and the pipes carry task
ids and timings only.  A run makes that one arena and no other, and gives
the threaded executor's bits, also on rebound steps.
"""

from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.runtime import mpexec
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.mpexec import MultiprocessExecutor
from tests.conftest import build_functional, make_batch, small_spec

CASES = [
    dict(training=True, fused="on", proj_block=2, wavefront_tile=2),
    dict(cell="gru", head="many_to_many", training=True),
    dict(head="many_to_many", training=False, fused="on", proj_block=2),
]


def _scalars(msg) -> bool:
    """A pipe message of ids, names, times and counters: no array, no blob."""
    plain = (str, int, float, type(None))
    return all(
        isinstance(v, plain) or isinstance(v, dict) and all(isinstance(c, plain) for c in v.values())
        for v in msg
    )


def _results(build) -> list:
    state = [a for chunk in build.chunks for a in (chunk.logits, chunk.loss_sums)]
    grads = [a for chunk in build.chunks if chunk.grads for _, a in chunk.grads.arrays()]
    return state + grads + [a for _, a in build.params.arrays()]


@pytest.mark.parametrize("case", CASES, ids=["lstm-hoisted-train", "gru-train", "lstm-fwd"])
def test_a_run_exports_no_state_block(monkeypatch, case):
    arenas = []

    class Counted(mpexec.ShmArena):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            arenas.append(self.name)

    send = Connection.send

    def checked_send(conn, msg):  # forked workers inherit the check
        assert _scalars(msg), msg
        send(conn, msg)

    monkeypatch.setattr(mpexec, "ShmArena", Counted)
    monkeypatch.setattr(Connection, "send", checked_send)
    process, threaded = build_functional(mbs=2, **case), build_functional(mbs=2, **case)
    MultiprocessExecutor(2).run(process.graph)
    monkeypatch.undo()
    ThreadedExecutor(2).run(threaded.graph)
    assert len(arenas) == 1
    assert all(np.array_equal(a, b) for a, b in zip(_results(process), _results(threaded)))


def test_rebound_process_steps_are_the_threaded_bits(set_proj_block):
    set_proj_block(2)
    spec = small_spec(num_layers=2)
    engines = [
        BParEngine(spec, BRNNParams.initialize(spec, 1), config=ExecutionConfig(
            executor=executor, mbs=2, fused_input_projection="on",
        ))
        for executor in (MultiprocessExecutor(2), ThreadedExecutor(2))
    ]
    builds = []
    for seed in range(3):
        x, labels = make_batch(spec, seed=seed)
        process, threaded = (
            [np.float64(e.train_batch(x, labels, lr=0.1)), e.last_result.logits()]
            + [a.copy() for _, a in e.params.arrays()]
            for e in engines
        )
        assert all(np.array_equal(a, b) for a, b in zip(process, threaded))
        builds.append(engines[0].last_result)
    assert builds[0] is builds[1] is builds[2]
