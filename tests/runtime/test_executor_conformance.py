"""Cross-executor conformance: every substrate computes the same bits.

The conformance matrix the racecheck and replay sweeps audit structurally
is executed here *functionally* on every substrate — threaded workers,
the threaded executor's one-thread path on the calling thread, the
simulated machine in payload mode, and the multiprocess executor over
shared memory — and each substrate's results (parameters, per-chunk
gradients, logits) must be bitwise identical to the threaded FIFO
reference built from the same deterministic state.  For the process
backend this is the end-to-end proof that the shared-memory transport
(state-arena rebinding, region export/import, side-state) is lossless:
one transposed byte anywhere shows up as diverging bits.

Tier-1 runs every substrate over a reduced config subset
(``TIER1_CASES``); the full builder matrix × process carries
``@pytest.mark.slow_mp`` and runs under ``make smoke-mp``.
"""

import pytest

from repro.runtime.racecheck import _result_fingerprint, plan_equivalence_check
from tests.conftest import (
    FUSION_SWEEP,
    PROJECTION_SWEEP,
    build_functional,
    make_executor,
)

#: tiny graphs, real threads: lift the executor's granularity floor (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("real_threads")


def _fingerprint_on(executor_name, **build_kwargs):
    build = build_functional(**build_kwargs)
    make_executor(executor_name, n_workers=2, scheduler="fifo").run(build.graph)
    return _result_fingerprint(build)


def _assert_bitwise_equal(executor_name, **build_kwargs):
    expected = _fingerprint_on("threaded", **build_kwargs)
    got = _fingerprint_on(executor_name, **build_kwargs)
    assert set(got) == set(expected)
    bad = sorted(name for name in expected if got[name] != expected[name])
    assert not bad, (
        f"{executor_name} diverged from threaded on {build_kwargs}: {bad}"
    )


# ---------------------------------------------------------------------------
# Tier-1: reduced subset, every substrate (including process)
# ---------------------------------------------------------------------------

#: one GIL-bound fine-grained config, one hoisted config (its block tasks
#: read ``h`` slots and the step-0 cache shipped from other workers), one
#: hoisted+tiled config, one inference config — the smallest set that
#: exercises every transport path (caches, gate grids, merge rows, logits
#: readback, side-state)
TIER1_CASES = [
    dict(cell="lstm", head="many_to_one", training=True, mbs=2, fusion="off"),
    dict(cell="lstm", head="many_to_one", training=True, mbs=2,
         fused="on", proj_block=2, fusion="gates"),
    dict(cell="gru", head="many_to_many", training=True, mbs=2,
         fused="on", proj_block=2, fusion="gates", wavefront_tile=2),
    dict(cell="lstm", head="many_to_many", training=False, mbs=2,
         fusion="gates"),
]


@pytest.mark.parametrize("executor_name", ["caller", "sim", "process"])
@pytest.mark.parametrize(
    "case", TIER1_CASES,
    ids=[f"{c['cell']}-{c['fusion']}-{'train' if c['training'] else 'fwd'}"
         + (f"-wt{c['wavefront_tile']}" if "wavefront_tile" in c else "")
         for c in TIER1_CASES],
)
def test_tier1_substrates_match_threaded(executor_name, case):
    _assert_bitwise_equal(executor_name, **case)


# ---------------------------------------------------------------------------
# Full matrix: all substrates via the shared fixture (process is slow_mp)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", PROJECTION_SWEEP)
@pytest.mark.slow_mp
def test_process_matches_threaded_projection_matrix(case):
    _assert_bitwise_equal("process", **case)


@pytest.mark.parametrize("case", FUSION_SWEEP)
@pytest.mark.slow_mp
def test_process_matches_threaded_fusion_matrix(case):
    _assert_bitwise_equal("process", **case)


def test_executor_matrix_fixture_runs_one_train_step(executor_matrix):
    """The shared fixture itself: one train step per substrate, bitwise
    against threaded (the process leg is slow_mp via the fixture mark)."""
    _assert_bitwise_equal(
        executor_matrix, cell="lstm", head="many_to_one", training=True, mbs=2
    )


@pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
def test_executor_matrix_hoisted_train_step(executor_matrix, cell):
    """A hoisted train step (only ``dh_prev`` on the chain, the gradient
    panel in per-block tasks) computes the same bits on every substrate."""
    _assert_bitwise_equal(
        executor_matrix, cell=cell, head="many_to_many", training=True, mbs=2,
        fused="on", proj_block=3,
    )


# ---------------------------------------------------------------------------
# Compiled-plan replay on the process backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fusion,wavefront_tile", [("gates", None), ("off", 2)])
def test_process_compiled_replay_bitwise(fusion, wavefront_tile):
    """Static replay of a compiled plan on worker processes is bitwise
    identical to a dynamic threaded schedule (the serving warm path)."""
    from repro.runtime.mpexec import MultiprocessExecutor

    mismatched = plan_equivalence_check(
        lambda: build_functional(
            cell="lstm", head="many_to_one", training=True, mbs=2,
            fusion=fusion, wavefront_tile=wavefront_tile,
        ),
        n_workers=2,
        executor_factory=MultiprocessExecutor,
    )
    assert not mismatched, f"process replay diverged on {mismatched}"
