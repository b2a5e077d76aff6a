"""Compiled-plan replay benchmark driver (suite ``compile``).

Measures what :mod:`repro.compile` buys on the serving hot path, in three
sections:

* **overhead** — per-batch runtime overhead on *cost-only* graphs (tasks
  carry no payloads, so wall time is almost pure scheduler + dependence
  bookkeeping): dynamic resolution (FIFO and locality policies) vs
  compiled-plan replay, interleaved round-robin so host noise hits every
  mode equally.  Replay wins by skipping the redundant-edge indegree
  decrements, the per-wake locality-hint computation (region-set
  intersection per successor), and the dynamic queue accounting.
* **serving** — a simulated :class:`~repro.serve.engine.InferenceEngine`
  with ``compile="on"`` serving a round-robin shape mix: every warm shape
  must hit the plan cache (``warm_hit_rate == 1.0``).
* **equivalence** — compiled-plan replay vs a dynamic FIFO schedule on a
  functional training build, compared bitwise
  (:func:`repro.runtime.racecheck.plan_equivalence_check`).

``python -m repro bench compile`` drives :func:`run_compile_bench`; the
sizes, bars and baseline are rows of :mod:`repro.harness.ledger`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compile import compile_graph
from repro.config import ExecutionConfig
from repro.core.graph_builder import build_brnn_graph
from repro.harness.measure import make_spec, summarize_times
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.racecheck import plan_equivalence_check
from repro.serve.batcher import Batch
from repro.serve.engine import InferenceEngine
from repro.serve.request import InferenceRequest

#: Dynamic baselines the replay path is compared against.
DYNAMIC_POLICIES = ("fifo", "locality")


def replay_overhead_times(
    spec: BRNNSpec,
    seq_len: int,
    batch: int,
    *,
    mbs: int = 4,
    n_workers: int = 1,
    iters: int = 20,
    warmup: int = 2,
) -> Tuple[Dict[str, List[float]], "object"]:
    """Wall-clock samples of one cost-only graph execution, per mode.

    The graph carries no payloads, so each run's wall time is the runtime
    overhead itself; ``n_workers=1`` by default so neither mode waits on
    worker wake-ups.  Returns ``(samples, plan)`` — samples keyed
    ``dynamic_<policy>`` and ``replay``, interleaved round-robin.
    """
    # Fused input projection "on" matches the simulated serving engine's
    # resolved default — and it is the inference-graph shape where the
    # dependence tracker over-declares (redundant hoisted-block edges),
    # so the plan's transitive reduction has real work to do.
    graph = build_brnn_graph(
        spec, seq_len=seq_len, batch=batch, mbs=mbs, training=False,
        fused_input_projection="on",
    ).graph
    plan = compile_graph(graph, n_workers=n_workers)
    executors = {
        f"dynamic_{policy}": ThreadedExecutor(n_workers, policy)
        for policy in DYNAMIC_POLICIES
    }
    replayer = ThreadedExecutor(n_workers)

    def run(mode: str) -> None:
        if mode == "replay":
            replayer.run(graph, plan=plan)
        else:
            executors[mode].run(graph)

    modes = list(executors) + ["replay"]
    for _ in range(warmup):
        for mode in modes:
            run(mode)
    samples: Dict[str, List[float]] = {mode: [] for mode in modes}
    for _ in range(iters):
        for mode in modes:
            t0 = time.perf_counter()
            run(mode)
            samples[mode].append(time.perf_counter() - t0)
    return samples, plan


def _make_batch(bid: int, seq_len: int, size: int) -> Batch:
    requests = [
        InferenceRequest(rid=f"b{bid}-{i}", seq_len=seq_len, arrival_time=0.0)
        for i in range(size)
    ]
    return Batch(
        batch_id=bid, requests=requests, padded_len=seq_len,
        trigger="bench", cut_time=0.0,
    )


def serving_cache_stats(
    spec: BRNNSpec,
    shapes: Sequence[Tuple[int, int]],
    *,
    mbs: int = 4,
    sim_cores: Optional[int] = None,
    repeats: int = 4,
) -> Dict:
    """Serve ``repeats`` rounds of each batch shape with ``compile="on"``.

    Round one compiles (one miss per shape); every later round must hit
    the plan cache — ``warm_hit_rate`` is hits over warm requests and the
    ledger pins it at 1.0.
    """
    engine = InferenceEngine(
        spec,
        config=ExecutionConfig(
            executor="sim", n_workers=sim_cores, mbs=mbs, compile="on"
        ),
    )
    bid = 0
    for _ in range(repeats):
        for seq_len, size in shapes:
            engine.execute(_make_batch(bid, seq_len, size))
            bid += 1
    stats = engine.plan_cache.stats()
    warm = bid - len(shapes)
    return {
        "n_batches": bid,
        "n_shapes": len(shapes),
        "warm_hit_rate": stats["hits"] / warm if warm else 0.0,
        "cache": stats,
    }


def equivalence_section(cell: str, head: str, *, mbs: int = 2, seed: int = 0) -> Dict:
    """Bitwise compiled-replay-vs-dynamic check on a small training build."""
    spec = make_spec(cell, input_size=5, hidden=4, layers=2, head=head)
    rng = np.random.default_rng(seed)
    seq_len, batch = 4, 4
    x = rng.standard_normal((seq_len, batch, spec.input_size)).astype(spec.dtype)
    if spec.head == "many_to_one":
        labels = rng.integers(0, spec.num_classes, size=batch)
    else:
        labels = rng.integers(0, spec.num_classes, size=(seq_len, batch))

    def build():
        params = BRNNParams.initialize(spec, seed=seed + 1)
        return build_brnn_graph(
            spec, x=x, labels=labels, params=params,
            training=True, mbs=mbs, lr=0.05,
        )

    mismatched = plan_equivalence_check(build, n_workers=2)
    return {"bitwise_identical": not mismatched, "mismatched_arrays": mismatched}


def run_compile_bench(
    cell: str = "lstm",
    input_size: int = 64,
    hidden: int = 128,
    layers: int = 2,
    seq_len: int = 50,
    batch: int = 16,
    head: str = "many_to_one",
    *,
    mbs: int = 4,
    iters: int = 20,
    warmup: int = 2,
    n_workers: int = 1,
    sim_cores: Optional[int] = None,
    repeats: int = 4,
    seed: int = 0,
) -> Dict:
    """One full compile point — overhead + serving + equivalence —
    as ``{"config", "results"}``."""
    spec = make_spec(cell, input_size, hidden, layers, head)
    raw, plan = replay_overhead_times(
        spec, seq_len, batch, mbs=mbs, n_workers=n_workers,
        iters=iters, warmup=warmup,
    )
    overhead: Dict[str, object] = {
        mode: summarize_times(xs) for mode, xs in raw.items()
    }
    replay_median = overhead["replay"]["median_s"]
    for policy in DYNAMIC_POLICIES:
        overhead[f"reduction_ratio_{policy}"] = (
            overhead[f"dynamic_{policy}"]["median_s"] / replay_median
            if replay_median > 0 else 0.0
        )
    # The gated headline: replay vs the cheapest dynamic baseline.
    overhead["reduction_ratio"] = min(
        overhead[f"reduction_ratio_{policy}"] for policy in DYNAMIC_POLICIES
    )
    shapes = [(seq_len, batch), (max(10, seq_len // 2), max(1, batch // 2))]
    serving = serving_cache_stats(
        spec, shapes, mbs=mbs, sim_cores=sim_cores, repeats=repeats
    )
    equivalence = equivalence_section(cell, head, mbs=min(mbs, 4), seed=seed)
    return {
        "config": {
            "cell": cell, "input_size": input_size, "hidden": hidden,
            "layers": layers, "seq_len": seq_len, "batch": batch,
            "head": head, "mbs": mbs, "iters": iters, "warmup": warmup,
            "n_workers": n_workers, "sim_cores": sim_cores,
            "repeats": repeats, "seed": seed,
            "dynamic_policies": list(DYNAMIC_POLICIES),
        },
        "results": {
            "overhead": overhead,
            "plan": dict(plan.meta),
            "serving": serving,
            "equivalence": equivalence,
        },
    }
