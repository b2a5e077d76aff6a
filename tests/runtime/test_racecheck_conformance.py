"""Dependency-declaration conformance sweep over the builder's matrix.

Every configuration the graph builder supports must produce a graph whose
declared regions exactly cover the payloads' actual memory accesses
(observation pass) and that the dependence proof passes (its declared
conflicts are all ordered, its declarations minimal): zero undeclared
accesses, zero proof findings.
This is the dynamic proof that the ``in``/``out``/``inout`` annotations —
the entire correctness basis of the barrier-free runtime — are complete
for LSTM/GRU × many-to-one/many-to-many × inference/training ×
data-parallel chunking × the fused input-projection path at every block
size, and × chain tiles under both kernels, plus the handful of builds that
reach the remaining access-rule branches (``RULE_BRANCH_SWEEP``: ``mul``
merges, momentum, per-layer barriers, B-Seq).

The case lists live in ``tests/conftest.py`` (``PROJECTION_SWEEP`` /
``FUSION_SWEEP``), shared with the compiled-replay and executor
conformance suites.  Configs the symbolic verifier certificate already
proves race-free carry ``@pytest.mark.certified`` and are excluded from
tier-1; run them with ``pytest -m certified``.
"""

import pytest

from repro.analysis.verify import verify_build
from repro.runtime.racecheck import check_build
from tests.conftest import (
    FUSION_SWEEP,
    PROJECTION_SWEEP,
    RULE_BRANCH_SWEEP,
    build_functional,
)


def _assert_conformant(result):
    report = check_build(result, verify_build(result))  # the proof, then observation
    assert report.observed_tasks == sum(1 for t in result.graph if t.fn is not None)
    assert report.ok, "\n".join(f.describe() for f in report.findings)


@pytest.mark.parametrize("case", PROJECTION_SWEEP + RULE_BRANCH_SWEEP)
def test_declarations_cover_observed_accesses(case):
    _assert_conformant(build_functional(**case))


@pytest.mark.parametrize("case", FUSION_SWEEP)
def test_fusion_declarations_cover_observed_accesses(case):
    _assert_conformant(build_functional(**case))
