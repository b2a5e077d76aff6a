"""The dependence proof over the builder's cost-only matrix.

The static mirror of ``tests/runtime/test_racecheck_conformance.py``:
every configuration the graph builder supports must produce a declared
graph the proof (:func:`~repro.analysis.verify.verify_build`) passes with
zero findings, and whose serialization debt is exactly the declared
structure's doing (debt ≥ 1 by construction; barrier-free builds must
not exceed the dataflow span at all).  It needs no payload execution —
the sweep builds cost-only graphs — and reaches what the certificate's
cutoff shapes do not: four chunks, and a projection block longer than
the sequence.
"""

import pytest

from repro.analysis.parallelism import parallelism_metrics
from repro.analysis.verify import verify_build
from repro.core.graph_builder import build_brnn_graph
from tests.conftest import small_spec

SEQ_LEN = 4
BATCH = 4

# (fused_input_projection, proj_block): off, per-step blocks, a mid-size
# block, and a block larger than the sequence (clamps to proj_block=T)
PROJ_CONFIGS = [("off", None), ("on", 1), ("on", 2), ("on", 16)]


def _build(cell, head, training, mbs, fused, proj_block):
    spec = small_spec(
        cell=cell, head=head, num_layers=2, hidden_size=4, input_size=5, num_classes=3
    )
    return build_brnn_graph(
        spec,
        seq_len=SEQ_LEN,
        batch=BATCH,
        training=training,
        mbs=mbs,
        fused_input_projection=fused,
        proj_block=proj_block,
    )


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("head", ["many_to_one", "many_to_many"])
@pytest.mark.parametrize("training", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("mbs", [1, 4])
@pytest.mark.parametrize(
    "fused,proj_block", PROJ_CONFIGS, ids=[f"{f}-pb{p}" for f, p in PROJ_CONFIGS]
)
def test_declared_graph_is_statically_clean(cell, head, training, mbs, fused, proj_block):
    result = _build(cell, head, training, mbs, fused, proj_block)

    report = verify_build(result)
    assert report.ok, "\n".join(f.describe() for f in report.findings)

    metrics = parallelism_metrics(result.graph)
    debt = metrics["serialization_debt"]
    assert debt >= 1.0 - 1e-9
    # barrier-free builds declare only value-carrying orderings
    assert debt <= 1.0 + 1e-9, (
        f"serialization debt {debt:.4f}: declared span "
        f"{metrics['span_tasks']} vs dataflow span "
        f"{metrics['dataflow_span_tasks']}"
    )
    assert metrics["width"] >= 1
