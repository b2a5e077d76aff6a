"""Machine description for the simulated executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of a modelled multi-core CPU platform.

    The defaults are meaningless; use :func:`repro.simarch.presets.xeon_8160_2s`
    for the paper's platform.  All throughput figures are *sustained
    effective* rates (MKL-sequential GEMM on one core), not peaks.
    """

    name: str
    n_sockets: int
    cores_per_socket: int
    freq_ghz: float
    #: sustained single-core GEMM throughput (GF/s) for large matrices
    gemm_gflops: float
    #: sustained single-core throughput (GF/s) for elementwise kernels
    elementwise_gflops: float
    #: per-core private L2 capacity (bytes)
    l2_bytes: int
    #: per-socket shared L3 capacity (bytes)
    l3_bytes: int
    #: L3-to-core bandwidth per core (GB/s)
    l3_bw_gbps: float
    #: local DRAM bandwidth per socket (GB/s), shared by the socket's cores
    mem_bw_gbps: float
    #: multiplicative slowdown for remote-socket (NUMA) DRAM traffic
    numa_factor: float
    #: fixed runtime overhead charged per task (seconds): creation +
    #: dependence resolution + scheduling + synchronisation
    task_overhead_s: float
    #: estimated retired instructions per floating-point operation
    #: (vector width, FMA fusion, loop overhead folded into one constant)
    instr_per_flop: float = 0.105
    #: GEMM size (flops) below which vector/blocking efficiency falls off:
    #: effective rate = gemm_gflops * flops / (flops + this)
    small_gemm_ref_flops: float = 2.0e6
    #: single-core DRAM streaming bandwidth cap (GB/s) — one core cannot
    #: saturate the socket's controllers (latency/MLP-bound)
    core_mem_bw_gbps: float = 12.0
    #: serial task-creation cost on the master thread (seconds per task);
    #: OmpSs instantiates the task graph sequentially, so very fine-grained
    #: decompositions (high mbs) pay a creation tax (§IV-B, Fig. 3)
    task_create_s: float = 3e-6

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket

    def socket_of(self, core: int) -> int:
        """Socket that owns ``core`` (cores are numbered socket-major)."""
        if core < 0 or core >= self.n_cores:
            raise ValueError(f"core {core} out of range for {self.n_cores}-core machine")
        return core // self.cores_per_socket


def usable_cores(machine: MachineSpec, n_cores: int) -> range:
    """The first ``n_cores`` core ids of ``machine`` (validated)."""
    if n_cores < 1 or n_cores > machine.n_cores:
        raise ValueError(f"{n_cores} cores requested on {machine.n_cores}-core machine")
    return range(n_cores)
