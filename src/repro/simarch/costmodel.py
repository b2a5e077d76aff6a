"""Per-task duration model (roofline with cache/NUMA classification).

``duration = overhead + max(compute, memory) + κ·min(compute, memory)``
with κ = ``RESIDUAL`` (the un-overlapped fraction of the faster component).

* ``compute`` — task flops over the core's sustained rate for the task's
  kind (GEMM-dominated cell updates vs elementwise merges/updates).
* ``memory`` — classified traffic over the bandwidth of the level serving
  it; DRAM bandwidth is shared by the tasks concurrently running on the
  socket, and remote-socket traffic pays the NUMA factor.
* κ — the un-overlapped fraction of the faster component (hardware
  prefetchers hide the slower component only partially).

Instruction counts (for IPC/MPKI estimation) fold vector width and loop
overhead into ``machine.instr_per_flop``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.runtime.task import Task
from repro.simarch.cache import CacheAccess, CacheModel
from repro.simarch.machine import MachineSpec

#: Traffic multiplier per task kind: how many times a kernel sweeps its
#: working set.  A blocked GEMM whose operand panel exceeds the L2 re-reads
#: operands once per cache block; elementwise kernels stream exactly once.
DEFAULT_REUSE: Dict[str, float] = {
    "cell": 2.0,       # 4-gate GEMM pair, operands swept per N-panel
    "cell_bwd": 2.0,
    "proj": 2.0,       # hoisted X@W_x block GEMM (builders annotate by rows)
    "proj_bwd": 2.0,   # hoisted [X|H_prev]^T·dZ / dZ·W_x^T block GEMMs
    "merge": 1.0,
    "merge_bwd": 1.0,
    "head": 2.0,
    "head_bwd": 2.0,
    "loss": 1.0,
    "grad_reduce": 1.0,
    "weight_update": 1.0,
    "barrier": 0.0,
    "task": 1.0,
}

#: Task kinds whose arithmetic runs at GEMM rate (everything else runs at
#: the elementwise rate).
GEMM_KINDS = {"cell", "cell_bwd", "proj", "proj_bwd", "head", "head_bwd"}

#: Fraction of the faster roofline component that does NOT overlap with the
#: slower one (prefetchers hide memory behind compute only partially).
RESIDUAL = 0.7


@dataclass
class TaskCost:
    """Outcome of costing one task dispatch."""

    duration: float
    compute_time: float
    mem_time: float
    overhead: float
    instructions: float
    access: CacheAccess


class CostModel:
    """Charge durations for tasks dispatched on a simulated machine."""

    def __init__(self, machine: MachineSpec, reuse: Dict[str, float] = None) -> None:
        self.machine = machine
        self.reuse = dict(DEFAULT_REUSE)
        if reuse:
            self.reuse.update(reuse)

    def compute_time(self, task: Task) -> float:
        """Pure arithmetic time of ``task`` on one core (no stalls)."""
        if task.flops <= 0:
            return 0.0
        if task.kind in GEMM_KINDS:
            rate = self.machine.gemm_gflops
            # Small GEMMs cannot amortise vectorisation/blocking overhead.
            # Builders annotate tasks that issue several GEMM calls
            # (a multi-step tile's or a paired step's per-step calls) with
            # ``gemm_calls``: the penalty applies to the *per-call* problem
            # size, not the task total.
            ref = self.machine.small_gemm_ref_flops
            if ref > 0:
                calls = max(1, int(task.meta.get("gemm_calls", 1)))
                per_call = task.flops / calls
                rate *= per_call / (per_call + ref)
        else:
            rate = self.machine.elementwise_gflops
        return task.flops / (rate * 1e9)

    def standalone(self, task: Task) -> float:
        """Context-free duration of ``task``: no cache residency, no
        bandwidth sharing — declared bytes stream once per sweep from the
        core's DRAM port.  A deterministic per-task weight for
        critical-path accounting (duration-weighted span), comparable
        across graphs built for the same machine.
        """
        m = self.machine
        compute = self.compute_time(task)
        reuse = float(task.meta.get("reuse", self.reuse.get(task.kind, 1.0)))
        nbytes = sum(r.nbytes for r in task.regions()) * reuse
        mem = nbytes / (m.core_mem_bw_gbps * 1e9)
        overhead = m.task_overhead_s + float(task.meta.get("extra_overhead_s", 0.0))
        return overhead + max(compute, mem) + RESIDUAL * min(compute, mem)

    def cost(
        self,
        task: Task,
        core: int,
        cache: CacheModel,
        active_on_socket: int = 1,
    ) -> TaskCost:
        """Duration of ``task`` on ``core`` given current cache residency.

        ``active_on_socket`` is the number of tasks concurrently executing
        on the core's socket (including this one); DRAM bandwidth is split
        between them.
        """
        m = self.machine
        compute = self.compute_time(task)
        # Builders annotate GEMM tasks with their sweep count (grows with
        # the GEMM's row count); fall back to the per-kind default.
        reuse = float(task.meta.get("reuse", self.reuse.get(task.kind, 1.0)))
        acc = cache.access(core, task, reuse=reuse)

        # Roughly half the socket's active tasks stream from DRAM at any
        # instant (the rest sit in their compute phase), so bandwidth is
        # split among active/2 streams.
        share = max(1.0, min(active_on_socket, m.cores_per_socket) / 2.0)
        dram_bw = min(m.mem_bw_gbps / share, m.core_mem_bw_gbps) * 1e9
        mem = (
            acc.l2_bytes / (m.l3_bw_gbps * 3e9)  # L2 feeds ~3x faster than L3
            + acc.l3_bytes / (m.l3_bw_gbps * 1e9)
            + acc.local_mem_bytes / dram_bw
            + acc.remote_mem_bytes / (dram_bw / m.numa_factor)
        )
        body = max(compute, mem) + RESIDUAL * min(compute, mem)
        # Framework baselines attach extra per-op dispatch/sync latency.
        overhead = m.task_overhead_s + float(task.meta.get("extra_overhead_s", 0.0))
        instructions = task.flops * m.instr_per_flop + acc.total_bytes / 64.0
        return TaskCost(
            duration=overhead + body,
            compute_time=compute,
            mem_time=mem,
            overhead=overhead,
            instructions=instructions,
            access=acc,
        )
