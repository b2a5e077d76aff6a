"""The forward chain body makes no per-step temporaries.

A forward tile payload runs the cell's chain body once
(:func:`repro.models.cells.cell_forward_chain`): buffers, scratch and row
operands are set up once per call, and every step writes through ``out=``.
Under ``tracemalloc`` this counts the executed Python lines during which
traced memory rose by at least half a ``(B, H)`` block (the peak is reset at
every line, so a temporary freed on its own line counts too; views and
Python objects stay far below the floor).  No clock is read: the count of a
K=32 tile must equal that of a K=4 tile, for both cells, with a cache and
without, on one chain and on the pair, unhoisted and hoisted.  It grows with
the step count the moment a step allocates an array again.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import CELLS, BRNNSpec

ROWS, HIDDEN, SEQ_LEN = 16, 128, 32
#: half of one ``(B, H)`` float32 block: every array a step could make is
#: at least this large, a view or a Python object is some 200 bytes
FLOOR = ROWS * HIDDEN * 4 // 2


def allocating_lines(fn) -> int:
    """Lines of ``fn`` and the Python it calls during which traced memory
    rose ``FLOOR`` bytes or more above where the line began."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        current, peak = tracemalloc.get_traced_memory()
        if peak - tracer.start >= FLOOR:
            count += 1
        tracemalloc.reset_peak()
        tracer.start = tracemalloc.get_traced_memory()[0]
        return tracer

    tracemalloc.start()
    try:
        tracer.start = tracemalloc.get_traced_memory()[0]
        sys.settrace(tracer)
        try:
            fn()
        finally:
            sys.settrace(None)
    finally:
        tracemalloc.stop()
    return count


def first_tile(cell, need_cache, direction, hoisted, K):
    """The payload of layer 0's first forward tile of ``K`` steps."""
    spec = BRNNSpec(cell=cell, input_size=24, hidden_size=HIDDEN, num_layers=1,
                    merge_mode="sum", head="many_to_one", num_classes=3, dtype=np.float32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SEQ_LEN, ROWS, spec.input_size)).astype(np.float32)
    build = build_brnn_graph(
        spec, x=x, labels=rng.integers(0, 3, size=ROWS) if need_cache else None,
        params=BRNNParams.initialize(spec, seed=0), training=need_cache, update_weights=False,
        paired=direction == "pair", wavefront_tile=K,
        fused_input_projection="on" if hoisted else "off",
    )
    for task in build.graph.tasks:  # the input projections a hoisted tile reads
        if task.kind == "proj":
            task.fn()
    (task,) = [t for t in build.graph.tasks
               if t.kind == "cell" and t.meta["dir"] == direction and t.meta["lo"] == 0]
    assert task.meta["hi"] == K
    return task.fn


@pytest.mark.parametrize("hoisted", [False, True], ids=["unhoisted", "hoisted"])
@pytest.mark.parametrize("direction", ["fwd", "pair"])
@pytest.mark.parametrize("need_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("cell", CELLS)
def test_a_tile_allocates_no_more_for_more_steps(cell, need_cache, direction, hoisted):
    counts = []
    for K in (4, 32):
        fn = first_tile(cell, need_cache, direction, hoisted, K)
        fn()  # first-call caches (activation rows) filled
        counts.append(allocating_lines(fn))
    assert counts[0] == counts[1], counts
    assert counts[0] <= 12, counts  # the set-up: buffers, scratch, rows, inputs


def test_the_count_sees_a_per_step_temporary():
    """The guard's own check: a loop that makes one array per step counts
    once per step."""
    block = np.ones((ROWS, HIDDEN), np.float32)

    def loop(steps):
        for _ in range(steps):
            block * 2.0

    assert allocating_lines(lambda: loop(4)) == 4
    assert allocating_lines(lambda: loop(32)) == 32
