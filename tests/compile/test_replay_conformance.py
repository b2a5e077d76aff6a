"""Bitwise replay-equivalence sweep over the builder's full matrix.

The compiled-path counterpart of ``test_racecheck_conformance``: for every
configuration the graph builder supports, executing a freshly compiled
plan must produce results bitwise identical to a dynamic FIFO schedule.
This is the proof that transitive reduction plus static list scheduling
preserves every dependence that matters: any dropped-but-needed edge or
unsound release order shows up as diverging bits under the 2-worker
replay.

The case lists live in ``tests/conftest.py`` (``PROJECTION_SWEEP`` /
``FUSION_SWEEP``), shared with the racecheck and executor conformance
suites.  Configs covered by the symbolic verifier certificate (whose
plan-closure obligation proves the same property statically) carry
``@pytest.mark.certified``; run them with ``pytest -m certified``.
"""

import pytest

from repro.runtime.racecheck import plan_equivalence_check
from tests.conftest import FUSION_SWEEP, PROJECTION_SWEEP, build_functional

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")


@pytest.mark.parametrize("case", PROJECTION_SWEEP)
def test_replay_bitwise_equivalent(case):
    mismatched = plan_equivalence_check(
        lambda: build_functional(**case), n_workers=2
    )
    assert not mismatched, f"replay diverged on {mismatched}"


@pytest.mark.parametrize("case", FUSION_SWEEP)
def test_fusion_replay_bitwise_equivalent(case):
    mismatched = plan_equivalence_check(
        lambda: build_functional(**case), n_workers=2
    )
    assert not mismatched, f"replay diverged on {mismatched}"
