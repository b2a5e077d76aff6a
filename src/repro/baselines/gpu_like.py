"""Closed-form GPU cost models for the K-GPU / P-GPU table columns.

A BRNN timestep on the GPU is one fused-gate GEMM kernel per direction
(cuDNN); the backward pass launches roughly twice as many kernels with
twice the flops.  Per-kernel latency (launch + framework glue) dominates
for small batches/sequences — which is why the paper's CPU runs beat both
GPU frameworks at batch 1 / seq ≤ 10 — while throughput wins for
batch 256 × seq 100.  PyTorch-GPU additionally drives the RNN loop from
Python with far higher per-kernel cost, and the paper reports it *hangs*
beyond ~90 M parameters; we reproduce that as ``None`` (table dash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.models.cells import cell_bwd_flops, cell_fwd_flops
from repro.models.spec import BRNNSpec
from repro.simarch.presets import GPUSpec, tesla_v100


@dataclass(frozen=True)
class GPUFrameworkModel:
    """One framework's GPU execution profile on a given device."""

    name: str
    device: GPUSpec
    #: per-kernel framework latency (replaces the device's bare launch cost)
    kernel_latency_s: float
    #: fixed per-batch cost: host/device transfers, graph setup
    batch_overhead_s: float
    #: forward/reverse streams overlap factor (1.0 = fully serialised,
    #: 0.5 = perfectly concurrent)
    direction_overlap: float
    #: parameter count beyond which runs fail (None = never);
    #: models PyTorch-GPU hanging above ~90M parameters
    hang_params: Optional[float] = None

    def batch_time(
        self, spec: BRNNSpec, seq_len: int, batch: int, training: bool = True
    ) -> Optional[float]:
        """Seconds per batch, or ``None`` when the configuration hangs."""
        if self.hang_params is not None and spec.num_parameters() > self.hang_params:
            return None
        dev = self.device
        total = self.batch_overhead_s
        for layer in range(spec.num_layers):
            fwd = cell_fwd_flops(spec, batch, layer)
            per_dir = sum(
                self.kernel_latency_s + _gemm_body(dev, fwd) for _ in range(seq_len)
            )
            total += 2.0 * self.direction_overlap * per_dir
            if training:
                bwd = cell_bwd_flops(spec, batch, layer)
                per_dir_bwd = sum(
                    2.0 * self.kernel_latency_s + _gemm_body(dev, bwd)
                    for _ in range(seq_len)
                )
                total += 2.0 * self.direction_overlap * per_dir_bwd
        return total


def _gemm_body(dev: GPUSpec, flops: float) -> float:
    """Kernel body time (the device's gemm_time minus its bare launch cost)."""
    return dev.gemm_time(flops) - dev.kernel_latency_s


def keras_gpu_model() -> GPUFrameworkModel:
    """Keras-TF on cuDNN on a Tesla V100: compiled graph, low per-kernel cost."""
    return GPUFrameworkModel(
        name="Keras-GPU",
        device=tesla_v100(),
        kernel_latency_s=14e-6,
        batch_overhead_s=22e-3,
        direction_overlap=0.6,
        hang_params=None,
    )


def pytorch_gpu_model() -> GPUFrameworkModel:
    """PyTorch 1.7 on cuDNN on a Tesla V100: eager per-timestep dispatch from Python."""
    return GPUFrameworkModel(
        name="PyTorch-GPU",
        device=tesla_v100(),
        kernel_latency_s=145e-6,
        batch_overhead_s=12e-3,
        direction_overlap=0.6,
        hang_params=90e6,
    )
