"""Tests for the device specs and kernel cost model."""

import pytest

from repro.system.devices import (
    CPU_HOST,
    DeviceSpec,
    HostProfile,
    KernelCostModel,
    TESLA_T4,
    TESLA_V100,
    calibrate_host,
)


@pytest.fixture(scope="module")
def cost():
    return KernelCostModel(HostProfile(gemm_gflops=50.0, gather_gbps=5.0))


class TestDeviceSpec:
    def test_datasheet_sanity(self):
        assert TESLA_V100.peak_gflops > TESLA_T4.peak_gflops
        assert TESLA_V100.mem_bw_gbps > TESLA_T4.mem_bw_gbps
        assert TESLA_V100.hbm_bytes == TESLA_T4.hbm_bytes == 16e9
        # p3.8xlarge has NVLink; g4dn has PCIe-only peer transfers
        assert TESLA_V100.p2p_gbps > TESLA_T4.p2p_gbps

    def test_effective_gflops(self):
        assert TESLA_V100.effective_gflops == pytest.approx(
            TESLA_V100.peak_gflops * TESLA_V100.efficiency
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", 0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            DeviceSpec("bad", 1, 1, 1, 1, 1, efficiency=0.0)
        # batched_efficiency prices every TT kernel: 0 divided by zero,
        # a negative value gave negative kernel times.
        for value in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="batched_efficiency"):
                DeviceSpec("bad", 1, 1, 1, 1, 1, batched_efficiency=value)
        with pytest.raises(ValueError, match="kernel_launch_us"):
            DeviceSpec("bad", 1, 1, 1, 1, 1, kernel_launch_us=-3)


class TestCalibration:
    def test_measures_positive(self):
        profile = calibrate_host(gemm_size=128, gather_rows=10_000)
        assert profile.gemm_gflops > 0
        assert profile.gather_gbps > 0

    def test_cached(self):
        a = calibrate_host(gemm_size=128, gather_rows=10_000)
        b = calibrate_host(gemm_size=128, gather_rows=10_000)
        assert a is b


class TestScaling:
    def test_compute_scaling_ratio(self, cost):
        host_time = 1.0
        v100 = cost.scale_compute(host_time, TESLA_V100)
        t4 = cost.scale_compute(host_time, TESLA_T4)
        # V100 is faster than T4 by the peak ratio
        assert v100 < t4
        assert t4 / v100 == pytest.approx(
            TESLA_V100.effective_gflops / TESLA_T4.effective_gflops
        )

    def test_memory_scaling_ratio(self, cost):
        v100 = cost.scale_memory(1.0, TESLA_V100)
        t4 = cost.scale_memory(1.0, TESLA_T4)
        assert t4 / v100 == pytest.approx(900.0 / 300.0)

    def test_negative_time_rejected(self, cost):
        with pytest.raises(ValueError):
            cost.scale_compute(-1.0, TESLA_V100)


class TestAnalyticKernels:
    def test_transfer_times(self, cost):
        t = cost.h2d_time(12e9, TESLA_V100)
        assert t == pytest.approx(1.0, rel=0.01)  # 12 GB over 12 GB/s

    def test_gather_time_memory_bound(self, cost):
        t = cost.gather_time(1000, 256, TESLA_V100)
        expected = 2 * 1000 * 256 / (900e9)
        assert t == pytest.approx(expected + TESLA_V100.kernel_launch_us * 1e-6)

    def test_launch_overhead(self, cost):
        assert cost.launch_time(TESLA_V100) == pytest.approx(5e-6)
        assert cost.launch_time(CPU_HOST) == 0.0
