"""Calibrated machine presets for the paper's experimental platforms.

Constants are calibrated so the *relative* results (who wins, by what
factor, where crossovers fall) of Tables III/IV and Figs. 3-8 match the
paper; absolute milliseconds are approximate by construction (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simarch.machine import MachineSpec

KIB = 1024
MIB = 1024 * KIB


def xeon_8160_2s() -> MachineSpec:
    """Dual-socket Intel Xeon Platinum 8160 (2 × 24 cores @ 2.1 GHz).

    Cache sizes follow Table I / §IV-A: 1 MiB private L2 per core, 33 MiB
    shared L3 per socket.  Throughput/bandwidth figures are sustained
    effective rates for MKL-sequential float32 kernels.
    """
    return MachineSpec(
        name="xeon-8160-2s",
        n_sockets=2,
        cores_per_socket=24,
        freq_ghz=2.1,
        gemm_gflops=48.0,
        elementwise_gflops=4.0,
        l2_bytes=1 * MIB,
        l3_bytes=33 * MIB,
        l3_bw_gbps=60.0,
        mem_bw_gbps=100.0,
        numa_factor=3.0,
        task_overhead_s=25e-6,
        instr_per_flop=0.083,
        core_mem_bw_gbps=16.0,
    )


@dataclass(frozen=True)
class GPUSpec:
    """Closed-form GPU cost-model parameters (Tesla V100-class).

    The GPU baselines of Tables III/IV are modelled analytically
    (:mod:`repro.baselines.gpu_like`): an RNN timestep is a fused-gate GEMM
    kernel whose efficiency grows with the GEMM's arithmetic size, plus a
    fixed per-kernel launch/framework latency that dominates at batch 1 —
    which is exactly why the paper's CPU runs win at seq ≤ 10 / batch 1 and
    lose at seq 100 / batch 256.
    """

    name: str
    peak_gflops: float
    #: per-kernel fixed cost (launch + framework glue), seconds
    kernel_latency_s: float
    #: per-batch fixed cost (host/device transfer + graph setup), seconds
    batch_overhead_s: float
    #: GEMM size (flops) at which efficiency reaches half its asymptote
    half_efficiency_flops: float
    #: asymptotic fraction of peak reached by large RNN GEMMs
    max_efficiency: float
    #: efficiency floor — tiny kernels are latency-bound, not curve-bound
    min_efficiency: float = 0.005

    def gemm_time(self, flops: float) -> float:
        """Time of one GEMM kernel of ``flops`` floating-point operations."""
        if flops <= 0:
            return self.kernel_latency_s
        eff = self.max_efficiency * flops / (flops + self.half_efficiency_flops)
        eff = max(eff, self.min_efficiency)
        return self.kernel_latency_s + flops / (self.peak_gflops * 1e9 * eff)


def tesla_v100() -> GPUSpec:
    """Tesla V100 SXM2 16 GB (15.7 Tflop/s fp32 peak)."""
    return GPUSpec(
        name="tesla-v100",
        peak_gflops=15700.0,
        kernel_latency_s=10e-6,
        batch_overhead_s=4e-3,
        half_efficiency_flops=1.2e9,
        max_efficiency=0.75,
        min_efficiency=0.005,
    )
