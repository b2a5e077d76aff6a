"""What the process executor ships between workers: cell caches only.

Every state block of a chunk (``h``/``c``, ``zx``, ``dz``, the merges, the
head's rows) is mapped into the shared state arena before the workers fork,
so a task writes its slots where every worker reads them; the blocks a run
writes before reading get arena room with no copy either way.  Only the
cell caches a payload assigns travel through the export arenas.  Engines on
the process executor must still give the threaded executor's bits on every
rebound step.
"""

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.models.params import BRNNParams
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.mpexec import MultiprocessExecutor
from tests.conftest import build_functional, make_batch, small_spec

CASES = [
    dict(training=True, fused="on", proj_block=2, wavefront_tile=2),
    dict(cell="gru", head="many_to_many", training=True),
    dict(head="many_to_many", training=False, fused="on", proj_block=2),
]


@pytest.mark.parametrize("case", CASES, ids=["lstm-hoisted-train", "gru-train", "lstm-fwd"])
def test_a_run_exports_no_state_block(case):
    build = build_functional(mbs=2, **case)
    assert build.shipped_kinds() == {"cache"}
    imports, exports, _ = MultiprocessExecutor(2)._transport_tables(build.graph, build, True)
    shipped = {key[0] for table in (imports, exports) for keys in table.values() for key in keys}
    assert shipped == ({"cache"} if case["training"] else set())
    with pytest.raises(KeyError, match="not shipped"):
        build.export_region(("h", 0, 0, "fwd", 0))


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
