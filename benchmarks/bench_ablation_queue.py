"""Ablation — ready-queue policy: FIFO (breadth-first) vs LIFO vs locality.

DESIGN.md §6.  The paper's B-Par uses the OmpSs breadth-first scheduler
(global FIFO queue) with the locality mechanism on top.  This ablation
checks that the choice is not load-bearing for makespan on a saturated
machine (any work-conserving order is within a few percent) — the
locality mechanism matters for *cache behaviour* (Fig. 7), not raw
dependency throughput — and that results are identical regardless.
"""

import numpy as np

from benchmarks.common import run_once
from repro.analysis.report import format_table
from repro.config import ExecutionConfig
from repro.core import BParEngine
from repro.harness.simtime import simulated_batch_time
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec
from repro.runtime.simexec import SimulatedExecutor
from repro.simarch.presets import laptop_sim

POLICIES = ("fifo", "lifo", "locality", "steal")


def test_queue_policy_ablation(benchmark):
    spec = BRNNSpec(cell="lstm", input_size=256, hidden_size=256, num_layers=8,
                    merge_mode="sum", head="many_to_one", num_classes=11)

    def run():
        return {
            policy: simulated_batch_time(
                spec, 100, 128, mbs=8, n_cores=48, scheduler=policy
            ).seconds
            for policy in POLICIES
        }

    times = run_once(benchmark, run)
    print()
    print(format_table(
        ["policy", "time s", "vs fifo"],
        [[p, round(t, 3), round(t / times["fifo"], 3)] for p, t in times.items()],
        title="Ablation: ready-queue policy, 8-layer BLSTM mbs:8 @ 48 cores",
    ))

    base = times["fifo"]
    for policy, t in times.items():
        assert abs(t - base) / base < 0.25, f"{policy} diverges >25% from fifo"

    # numerics are schedule-independent: identical logits under every policy
    small = BRNNSpec(cell="lstm", input_size=8, hidden_size=6, num_layers=3,
                     merge_mode="sum", head="many_to_one", num_classes=4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 6, 8)).astype(np.float32)
    labels = rng.integers(0, 4, size=6)
    outputs = []
    for policy in POLICIES:
        sim = SimulatedExecutor(laptop_sim(4), scheduler=policy, execute_payloads=True)
        eng = BParEngine(
            small, params=BRNNParams.initialize(small, seed=1),
            # the paper's task-per-cell graph, whatever the engines' default
            config=ExecutionConfig(executor=sim, fused_input_projection="off"),
        )
        _, logits, _ = eng.loss_and_grads(x, labels)
        outputs.append(logits)
    assert all(np.array_equal(outputs[0], o) for o in outputs[1:])
    benchmark.extra_info.update({p: times[p] for p in POLICIES})
