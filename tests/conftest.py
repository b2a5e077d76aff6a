"""Shared fixtures for the test suite.

Besides the tiny-model builders, this module is the single home of the
cross-executor conformance machinery: the builder configuration matrices
(``PROJ_CONFIGS``/``FUSION_TILES``) and the fully-expanded case sweeps
(``PROJECTION_SWEEP``/``FUSION_SWEEP``) that the racecheck, compiled-
replay and executor conformance suites all parametrize over, and the
executor matrix (``executor_matrix``/``make_executor``) that
parametrizes conformance tests over every substrate — threaded, the
threaded executor's one-thread path (the registration order, on the
caller), simulated (functional payload mode), and multiprocess.

The graphs these suites build are far below the granularity floor, so
an engine would plan one thread for them (and the one-task-per-layer
graph), and above it on two threads a layer's chains are coarse tasks;
suites whose purpose is concurrency through an engine apply the
``real_threads`` fixture, which takes the floor away and keeps the
per-step graph.  A graph built by hand runs on every worker of the
executor it is handed to.

Two markers thin the sweeps out of tier-1:

* the process leg of the *full* executor matrix carries
  ``@pytest.mark.slow_mp`` (forking per case is expensive); a reduced
  process subset stays in tier-1 via ``EXECUTORS_TIER1``;
* sweep configs whose race-freedom is already proven symbolically by the
  ``repro.analysis.verify`` certificate (``make smoke-verify``) carry
  ``@pytest.mark.certified`` — tier-1 keeps one representative spine per
  axis, and ``pytest -m certified`` runs the certificate-covered rest on
  demand (``make smoke-mp`` still executes everything).
"""

import numpy as np
import pytest

from repro.core import graph_builder
from repro.core.graph_builder import build_brnn_graph
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.serve.engine import InferenceEngine
from repro.simarch.machine import MachineSpec
from repro.simarch.presets import KIB, MIB


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def real_threads(monkeypatch):
    """The granularity floor (``MIN_GEMM_FLOPS_PER_CELL_STEP``) is patched
    to 0, so the engines' policy plans ``n_workers`` threads for every
    shape, and the policy the engines call keeps the per-step graph
    wherever it plans more than one thread and no tile is configured (on
    its own it would build one task per chain on up to ``2·mbs`` threads).
    Apply with ``pytestmark = pytest.mark.usefixtures("real_threads")``."""
    from repro.core import bpar, graph_builder
    from repro.serve import engine

    policy = graph_builder.plan_granularity

    def per_step(spec, rows, seq_len, training, n_workers, executor, config=None):
        plan = policy(spec, rows, seq_len, training, n_workers, executor, config)
        if plan.threads > 1 and (config is None or config.wavefront_tile is None):
            plan = plan._replace(tile=1)
        return plan

    monkeypatch.setattr(graph_builder, "MIN_GEMM_FLOPS_PER_CELL_STEP", 0.0)
    for module in (graph_builder, bpar, engine):
        monkeypatch.setattr(module, "plan_granularity", per_step)


@pytest.fixture
def set_proj_block(monkeypatch):
    """``set_proj_block(n)`` makes every engine's hoisted layers run
    ``n``-step blocks for the rest of the test (engines build with the
    builder's ``DEFAULT_PROJ_BLOCK``), so a short test sequence still spans
    several blocks; ``None`` keeps the default."""

    def set_block(block):
        if block is not None:
            monkeypatch.setattr(graph_builder, "DEFAULT_PROJ_BLOCK", block)

    return set_block


def small_spec(**overrides) -> BRNNSpec:
    """A tiny BRNN spec for fast functional tests."""
    kwargs = dict(
        cell="lstm",
        input_size=6,
        hidden_size=5,
        num_layers=3,
        merge_mode="sum",
        head="many_to_one",
        num_classes=4,
        dtype=np.float32,
    )
    kwargs.update(overrides)
    return BRNNSpec(**kwargs)


@pytest.fixture
def spec():
    return small_spec()


def make_batch(spec: BRNNSpec, seq_len=5, batch=8, seed=7):
    """Deterministic (x, labels) for a spec."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(spec.dtype)
    if spec.head == "many_to_one":
        labels = rng.integers(0, spec.num_classes, size=batch)
    else:
        labels = rng.integers(0, spec.num_classes, size=(seq_len, batch))
    return x, labels


def predecessors(graph, tid):
    """Predecessor tids of ``tid``, in tid order."""
    return [p for p, succs in enumerate(graph.successors) if tid in succs]


def reaches(bits, a, b):
    """Whether a dependence path ``a -> ... -> b`` exists; ``bits`` is the
    graph's ``repro.runtime.depgraph.descendants_bitsets(graph.successors)``."""
    return bool(bits[a] >> b & 1)


def laptop_sim(n_cores: int = 8) -> MachineSpec:
    """A small single-socket machine for fast simulated tests."""
    return MachineSpec(
        name=f"laptop-{n_cores}c",
        n_sockets=1,
        cores_per_socket=n_cores,
        freq_ghz=3.0,
        gemm_gflops=20.0,
        elementwise_gflops=3.0,
        l2_bytes=512 * KIB,
        l3_bytes=16 * MIB,
        l3_bw_gbps=30.0,
        mem_bw_gbps=40.0,
        numa_factor=1.0,
        task_overhead_s=50e-6,
        instr_per_flop=0.105,
    )


def read_registry_per_batch(monkeypatch, registry):
    """Wrap ``InferenceEngine.execute`` (as ``bench/spans.py`` wraps its
    targets) to read ``registry.flat()`` as each cut batch is handed to an
    engine; returns the list the reads go to."""
    snapshots = []
    execute = InferenceEngine.execute

    def reading_execute(engine, batch):
        snapshots.append(registry.flat())
        return execute(engine, batch)

    monkeypatch.setattr(InferenceEngine, "execute", reading_execute)
    return snapshots


def momentum_step(params: BRNNParams, velocity: BRNNParams, grads: BRNNParams,
                  lr: float, mu: float = 0.9) -> None:
    """Classical momentum a caller takes on gradients, in place:
    ``v ← µ·v − lr·g; W ← W + v`` (engines update by plain SGD only)."""
    for (_, v), (_, g), (_, w) in zip(velocity.arrays(), grads.arrays(), params.arrays()):
        v *= np.asarray(mu, dtype=v.dtype)
        v += np.asarray(-lr, dtype=v.dtype) * g
        w += v


@pytest.fixture
def batch(spec):
    return make_batch(spec)


@pytest.fixture
def params(spec):
    return BRNNParams.initialize(spec, seed=3)


# ---------------------------------------------------------------------------
# Cross-executor conformance machinery (docs/EXECUTORS.md, docs/TESTING.md)
# ---------------------------------------------------------------------------

#: sequence length / batch of the conformance-sweep builds
CONF_SEQ_LEN = 4
CONF_BATCH = 4

#: (fused_input_projection, proj_block): off, per-step blocks, a mid-size
#: block, and a block larger than the sequence (clamps to proj_block=T)
PROJ_CONFIGS = [("off", None), ("on", 1), ("on", 2), ("on", 16)]

#: wavefront tiles: a mid-size tile and one ≥T (one tile per chain)
FUSION_TILES = [2, 16]


def conformance_spec(cell="lstm", head="many_to_one", merge_mode="sum"):
    """The 2-layer tiny spec every conformance sweep builds from."""
    return small_spec(
        cell=cell, head=head, merge_mode=merge_mode,
        num_layers=2, hidden_size=4, input_size=5, num_classes=3,
    )


def build_functional(
    cell="lstm",
    head="many_to_one",
    training=True,
    mbs=2,
    fused="off",
    proj_block=None,
    wavefront_tile=None,
    merge_mode="sum",
    barrier_free=True,
    serialize_chunks=False,
    seed=5,
    paired=False,
):
    """A freshly built functional graph from deterministic state.

    Every call with the same arguments starts from bit-identical inputs
    and parameters, so two builds executed on different substrates must
    finish with bit-identical results.
    """
    spec = conformance_spec(cell, head, merge_mode)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((CONF_SEQ_LEN, CONF_BATCH, spec.input_size)).astype(
        spec.dtype
    )
    if spec.head == "many_to_one":
        labels = rng.integers(0, spec.num_classes, size=CONF_BATCH)
    else:
        labels = rng.integers(0, spec.num_classes, size=(CONF_SEQ_LEN, CONF_BATCH))
    return build_brnn_graph(
        spec,
        x=x,
        labels=labels if training else None,
        params=BRNNParams.initialize(spec, seed=2),
        training=training,
        mbs=mbs,
        lr=0.05,
        fused_input_projection=fused,
        proj_block=proj_block,
        wavefront_tile=wavefront_tile,
        barrier_free=barrier_free,
        serialize_chunks=serialize_chunks,
        paired=paired,
    )


def _conf_case_id(case):
    """Stable, readable pytest id for one conformance build config."""
    bits = [
        case["cell"],
        "m2o" if case["head"] == "many_to_one" else "m2m",
        "train" if case["training"] else "fwd",
        f"mbs{case['mbs']}",
    ]
    if case.get("fused", "off") == "on":
        bits.append(f"pb{case['proj_block']}")
    if case.get("wavefront_tile"):
        bits.append(f"wt{case['wavefront_tile']}")
    if case.get("paired"):
        bits.append("paired")
    if case.get("merge_mode", "sum") != "sum":
        bits.append(case["merge_mode"])
    if not case.get("barrier_free", True):
        bits.append("barriered")
    if case.get("serialize_chunks"):
        bits.append("bseq")
    return "-".join(bits)


def _sweep(cases, tier1_cases):
    """Parametrize values for ``cases``; non-tier-1 ones marked certified."""
    return [
        pytest.param(
            case,
            id=_conf_case_id(case),
            marks=() if case in tier1_cases else (pytest.mark.certified,),
        )
        for case in cases
    ]


#: every projection-matrix configuration of the conformance sweeps
_PROJECTION_CASES = [
    dict(cell=cell, head=head, training=training, mbs=mbs,
         fused=fused, proj_block=pb)
    for cell in ("lstm", "gru")
    for head in ("many_to_one", "many_to_many")
    for training in (False, True)
    for mbs in (1, 4)
    for fused, pb in PROJ_CONFIGS
]

#: the tier-1 spine: every projection config on one representative axis
#: point, plus one corner per remaining axis value
_PROJECTION_TIER1 = [
    dict(cell="lstm", head="many_to_one", training=True, mbs=1,
         fused=fused, proj_block=pb)
    for fused, pb in PROJ_CONFIGS
] + [
    dict(cell="gru", head="many_to_many", training=True, mbs=4,
         fused="on", proj_block=2),
    dict(cell="lstm", head="many_to_many", training=False, mbs=4,
         fused="off", proj_block=None),
    dict(cell="gru", head="many_to_one", training=False, mbs=1,
         fused="on", proj_block=16),
]

PROJECTION_SWEEP = _sweep(_PROJECTION_CASES, _PROJECTION_TIER1)

#: every tile configuration, composed with chunking (mbs=2) and projection
#: hoisting (pb=2)
_FUSION_CASES = [
    dict(cell=cell, head=head, training=training, mbs=2,
         fused="on", proj_block=2, wavefront_tile=wt)
    for cell in ("lstm", "gru")
    for head in ("many_to_one", "many_to_many")
    for training in (False, True)
    for wt in FUSION_TILES
]

_FUSION_TIER1 = [
    dict(cell="lstm", head="many_to_one", training=True, mbs=2,
         fused="on", proj_block=2, wavefront_tile=wt)
    for wt in FUSION_TILES
] + [
    dict(cell="gru", head="many_to_many", training=training, mbs=2,
         fused="on", proj_block=2, wavefront_tile=2)
    for training in (False, True)
]

FUSION_SWEEP = _sweep(_FUSION_CASES, _FUSION_TIER1)

#: the access-rule branches neither sweep reaches, a handful of builds for
#: the declaration audits: ``mul`` merges (their backward reads ``h``),
#: per-layer barriers with the direction chains serialised, and B-Seq's
#: per-chunk ``serial`` token
_RULE_BRANCH_CASES = [
    dict(cell="lstm", head="many_to_many", training=True, mbs=2, merge_mode="mul"),
    dict(cell="gru", head="many_to_one", training=True, mbs=2,
         fused="on", proj_block=2, merge_mode="mul"),
    dict(cell="lstm", head="many_to_one", training=True, mbs=2,
         serialize_chunks=True),
    dict(cell="gru", head="many_to_many", training=True, mbs=2,
         fused="on", proj_block=2, barrier_free=False),
    dict(cell="lstm", head="many_to_one", training=True, mbs=2,
         wavefront_tile=2, barrier_free=False, serialize_chunks=True),
]

RULE_BRANCH_SWEEP = _sweep(_RULE_BRANCH_CASES, _RULE_BRANCH_CASES)


#: every functional substrate; ``process`` marked slow_mp (one fork set per
#: case makes the full matrix expensive — ``make smoke-mp`` runs it)
EXECUTOR_MATRIX = [
    pytest.param("threaded", id="threaded"),
    pytest.param("caller", id="caller"),
    pytest.param("sim", id="sim"),
    pytest.param("process", id="process", marks=pytest.mark.slow_mp),
]

#: the reduced cross-executor set that stays in tier-1: the process leg
#: still runs, but only against the reduced config subset
EXECUTORS_TIER1 = ["threaded", "sim", "process"]


def make_executor(name, n_workers=2, scheduler="fifo"):
    """A fresh functional executor of substrate ``name``.

    ``sim`` returns the modelled machine with ``execute_payloads=True``,
    so every substrate runs the real numerics and can be compared
    bitwise.  ``caller`` is the threaded executor's one-thread path: the
    build's registration order on the calling thread.
    """
    if name == "threaded":
        from repro.runtime.executor import ThreadedExecutor

        return ThreadedExecutor(n_workers, scheduler)
    if name == "caller":  # one worker never starts a thread (docs/EXECUTORS.md)
        from repro.runtime.executor import ThreadedExecutor

        return ThreadedExecutor(1, scheduler)
    if name == "process":
        from repro.runtime.mpexec import MultiprocessExecutor

        return MultiprocessExecutor(n_workers, scheduler)
    if name == "sim":
        from repro.runtime.simexec import SimulatedExecutor
        from repro.simarch.presets import xeon_8160_2s

        return SimulatedExecutor(
            xeon_8160_2s(),
            n_cores=n_workers,
            scheduler=scheduler,
            execute_payloads=True,
        )
    raise ValueError(f"unknown executor substrate {name!r}")


def own_segments():
    """This process's ``/dev/shm`` arenas, the leak probe of the process
    executor's tests: an arena's name carries the pid that created it
    (``repro_mp_<pid>_<n>``), so a process-executor run elsewhere on the
    host never shows up here."""
    import os

    from repro.runtime.shm import SEGMENT_PREFIX, list_segments

    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return [name for name in list_segments() if name.startswith(mine)]


@pytest.fixture(params=EXECUTOR_MATRIX)
def executor_matrix(request):
    """Parametrizes a test over every functional substrate by name."""
    return request.param
