"""``GraphBuildResult.map_storage`` visits every array a build holds.

The race checker's observed audit swaps tracked views in through
``map_storage``, and the process executor moves state into shared memory
the same way: an array the walk misses is an access neither sees.  So
after a run moves every array it walks to a copy, every ndarray reachable
from a chunk's state, the params and the gradients must lie in one of the
copies (a layer's direction views follow its moved parameter stack), and
so must every array a region resolves to.

Exempt, by name: ``labels`` (read by the loss task through its chunk, no
region of its own) and the read-only initial state ``h0``/``c0`` (no region
either; a cache that keeps it is walked).
"""

import itertools

import numpy as np
import pytest

from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime.executor import SerialExecutor
from tests.conftest import make_batch, small_spec

EXEMPT = frozenset({"labels", "h0", "c0"})


def _reachable_arrays(roots):
    seen, arrays, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def _root(array):
    while array.base is not None:
        array = array.base
    return id(array)


CONFIGS = list(itertools.product(
    ("lstm", "gru"), ("many_to_one", "many_to_many"), ("off", "on"), (False, True),
    (False, True),
))


@pytest.mark.parametrize(
    "cell, head, hoist, paired, training", CONFIGS,
    ids=["-".join(map(str, c)) for c in CONFIGS],
)
def test_map_storage_visits_every_array(cell, head, hoist, paired, training):
    spec = small_spec(cell=cell, head=head, num_layers=2)
    x, labels = make_batch(spec, seq_len=5)
    params = BRNNParams.initialize(spec, seed=0)
    result = build_brnn_graph(
        spec, x=x, labels=labels, params=params, training=training, mbs=2,
        fused_input_projection=hoist, proj_block=2, paired=paired,
    )
    SerialExecutor().run(result.graph)

    moved = []

    def move(a):  # a copy elsewhere, as the process executor's arena makes
        moved.append(a.copy())
        return moved[-1]

    result.map_storage(move)
    by_root = {}
    for array in moved:
        by_root.setdefault(_root(array), []).append(array)

    def in_moved(array) -> bool:
        return any(np.shares_memory(array, m) for m in by_root.get(_root(array), ()))

    roots = [params]
    for state in result.chunks:
        roots += [value for name, value in vars(state).items() if name not in EXEMPT]
    missed = [a.shape for a in _reachable_arrays(roots) if not in_moved(a)]
    assert not missed
    for region in result.regions.regions():
        for array in result.region_storage(region.key):
            assert in_moved(array), region.key
