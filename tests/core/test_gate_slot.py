"""A hoisted layer's gate pre-activation slot is one region for both passes.

A training chunk holds one ``z`` block per hoisted layer: the projection
writes a step's slot, the forward cell reads it, the backward cell writes
the step's gate gradient over it and the projection backward reads that
(``repro.core.state``).  Every ``z`` key's accesses, in registration order,
must be exactly those four, with the barriered graph's one extra read (the
reverse chain's first backward tile waits on the forward chain's last),
and the proof's ordering and minimality obligations must hold on the
shared bytes.  No clock is read.
"""

import pytest

from repro.analysis.verify import minimality_findings
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.runtime.racecheck import ordering_findings
from tests.conftest import make_batch, small_spec

#: every z slot's accesses: (task kind, mode) in registration order
FOUR = [("proj", "out"), ("cell", "in"), ("cell_bwd", "out"), ("proj_bwd", "in")]


def _z_accesses(graph) -> dict:
    """``z`` key -> its ``(task kind, mode)`` accesses in registration order."""
    seen = {}
    for task in graph:
        for mode, regions in (("in", task.ins), ("out", task.outs), ("inout", task.inouts)):
            for region in regions:
                if region.key[0] == "z":
                    seen.setdefault(region.key, []).append((task.kind, mode))
    return seen


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("tile", [1, 5], ids=["tile1", "tileT"])
@pytest.mark.parametrize("barrier_free", [True, False], ids=["free", "barriered"])
def test_each_z_slot_is_projected_read_overwritten_then_read(cell, tile, barrier_free):
    spec = small_spec(cell=cell, head="many_to_many")
    T, mbs = 5, 2
    x, labels = make_batch(spec, seq_len=T, batch=4)
    result = build_brnn_graph(
        spec, x=x, labels=labels, params=BRNNParams.initialize(spec, 1), mbs=mbs,
        barrier_free=barrier_free, fused_input_projection="on", proj_block=2,
        wavefront_tile=tile,
    )
    accesses = _z_accesses(result.graph)
    assert len(accesses) == mbs * spec.num_layers * 2 * T
    for (_, mb, layer, d, pos), seen in accesses.items():
        expected = list(FOUR)
        if not barrier_free and (d, pos) == ("fwd", 0):
            expected.insert(3, ("cell_bwd", "in"))
        assert seen == expected, (mb, layer, d, pos)
    findings, pairs = ordering_findings(result.graph)
    assert findings == [] and pairs > 0
    assert minimality_findings(result.graph) == []
