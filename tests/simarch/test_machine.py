"""Unit tests for the machine description."""

import pytest

from repro.simarch.machine import MachineSpec, usable_cores
from repro.simarch.presets import tesla_v100, xeon_8160_2s
from tests.conftest import laptop_sim


def test_xeon_preset_matches_paper_table1():
    m = xeon_8160_2s()
    assert m.n_sockets == 2
    assert m.cores_per_socket == 24
    assert m.n_cores == 48
    assert m.freq_ghz == pytest.approx(2.1)
    assert m.l2_bytes == 1024 * 1024  # 1024K L2 (paper §IV-A)
    assert m.l3_bytes == 33 * 1024 * 1024  # 33792K L3 per socket


def test_socket_of():
    m = xeon_8160_2s()
    assert m.socket_of(0) == 0
    assert m.socket_of(23) == 0
    assert m.socket_of(24) == 1
    assert m.socket_of(47) == 1
    with pytest.raises(ValueError):
        m.socket_of(48)
    with pytest.raises(ValueError):
        m.socket_of(-1)


def test_usable_cores_validation():
    m = laptop_sim(4)
    assert list(usable_cores(m, 2)) == [0, 1]
    with pytest.raises(ValueError):
        usable_cores(m, 5)
    with pytest.raises(ValueError):
        usable_cores(m, 0)


def test_v100_preset_gemm_time_monotone():
    gpu = tesla_v100()
    t_small = gpu.gemm_time(1e6)
    t_big = gpu.gemm_time(1e9)
    assert t_big > t_small
    # launch latency floors tiny kernels
    assert gpu.gemm_time(0) == pytest.approx(gpu.kernel_latency_s)


def test_v100_efficiency_asymptote():
    gpu = tesla_v100()
    # at enormous sizes, time/flops approaches 1 / (peak * max_eff)
    flops = 1e13
    eff_rate = flops / (gpu.gemm_time(flops) - gpu.kernel_latency_s)
    assert eff_rate == pytest.approx(gpu.peak_gflops * 1e9 * gpu.max_efficiency, rel=0.01)
