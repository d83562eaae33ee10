"""Device specifications and the calibrated kernel cost model.

This reproduction has no GPU, so end-to-end *system* comparisons
(Figures 11–13, 16) run on a cost model with two anchors:

1. **Host calibration** — :func:`calibrate_host` measures this
   machine's real NumPy GEMM throughput and gather bandwidth once per
   process.  The MLP and dense-embedding times the benchmarks measure
   are therefore *real* wall-clock numbers.
2. **Published device specs** — :data:`TESLA_V100` / :data:`TESLA_T4`
   carry peak FP32 throughput, memory bandwidth, HBM capacity, and
   interconnect rates from Nvidia's datasheets.  A measured kernel's
   time on a device is its host time scaled by the device/host
   throughput ratio on the roofline axis that limits it; a TT kernel's
   is its analytic FLOP count over the device's batched-GEMM
   throughput.

All frameworks share one cost model, so *relative* results (who wins,
crossover points) depend only on compute:communication ratios — the
quantity the paper's system design actually manipulates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.timer import measure_median
from repro.utils.validation import check_positive

__all__ = [
    "DeviceSpec",
    "HostProfile",
    "calibrate_host",
    "KernelCostModel",
    "CPU_HOST",
    "TESLA_V100",
    "TESLA_T4",
]


@dataclass(frozen=True)
class DeviceSpec:
    """One compute device in the cost model.

    Attributes
    ----------
    name:
        Display label.
    peak_gflops:
        Peak dense FP32 throughput (GFLOP/s).  For the host CPU this is
        filled from calibration.
    mem_bw_gbps:
        Device-memory bandwidth (GB/s) limiting gather/scatter-type
        kernels.
    hbm_bytes:
        Device memory capacity (drives placement decisions).
    h2d_gbps:
        Host-to-device transfer bandwidth (PCIe for the GPUs).
    p2p_gbps:
        Device-to-device bandwidth (NVLink / PCIe peer) for collective
        communication in multi-GPU experiments.
    kernel_launch_us:
        Fixed per-kernel overhead in microseconds (the fused-update
        optimization §III-B removes launches; modeled explicitly).
    efficiency:
        Achievable fraction of peak for the paper's GEMM-shaped
        workloads.
    batched_efficiency:
        Achievable fraction of peak for batched-small-GEMM kernels; it
        prices every TT kernel (see :attr:`effective_batched_gflops`).
    """

    name: str
    peak_gflops: float
    mem_bw_gbps: float
    hbm_bytes: float
    h2d_gbps: float
    p2p_gbps: float
    kernel_launch_us: float = 5.0
    efficiency: float = 0.35
    batched_efficiency: float = 0.12

    def __post_init__(self) -> None:
        for attr in (
            "peak_gflops",
            "mem_bw_gbps",
            "hbm_bytes",
            "h2d_gbps",
            "p2p_gbps",
        ):
            check_positive(getattr(self, attr), attr)
        for attr in ("efficiency", "batched_efficiency"):
            value = getattr(self, attr)
            if not 0 < value <= 1:
                raise ValueError(f"{attr} must be in (0, 1], got {value}")
        check_positive(self.kernel_launch_us, "kernel_launch_us", strict=False)

    @property
    def effective_gflops(self) -> float:
        return self.peak_gflops * self.efficiency

    @property
    def effective_batched_gflops(self) -> float:
        """Throughput for batched-small-GEMM kernels (TT contractions).

        Tiny per-item matrices keep both CPUs and GPUs far from peak;
        ``batched_efficiency`` is the achievable fraction for the
        ~32x32x128 shapes of rank-32..128 TT cores (cuBLAS
        ``GemmBatchedEx`` class).
        """
        return self.peak_gflops * self.batched_efficiency


# Datasheet numbers.  CPU peak is a placeholder replaced by calibration.
CPU_HOST = DeviceSpec(
    name="cpu-host",
    peak_gflops=150.0,
    mem_bw_gbps=25.0,
    hbm_bytes=200e9,
    h2d_gbps=25.0,
    p2p_gbps=25.0,
    kernel_launch_us=0.0,
    efficiency=1.0,
    batched_efficiency=1.0,
)
TESLA_V100 = DeviceSpec(
    name="V100",
    peak_gflops=15_700.0,
    mem_bw_gbps=900.0,
    hbm_bytes=16e9,
    h2d_gbps=12.0,
    p2p_gbps=150.0,  # NVLink on p3.8xlarge
)
TESLA_T4 = DeviceSpec(
    name="T4",
    peak_gflops=8_100.0,
    mem_bw_gbps=300.0,
    hbm_bytes=16e9,
    h2d_gbps=12.0,
    p2p_gbps=12.0,  # PCIe-only on g4dn.12xlarge
)


@dataclass(frozen=True)
class HostProfile:
    """Measured throughput of this host's NumPy kernels."""

    gemm_gflops: float
    gather_gbps: float

    def __post_init__(self) -> None:
        check_positive(self.gemm_gflops, "gemm_gflops")
        check_positive(self.gather_gbps, "gather_gbps")


@functools.lru_cache(maxsize=1)
def calibrate_host(gemm_size: int = 768, gather_rows: int = 200_000) -> HostProfile:
    """Measure host GEMM GFLOP/s and gather GB/s (cached per process)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((gemm_size, gemm_size))
    b = rng.standard_normal((gemm_size, gemm_size))
    t_gemm = measure_median(lambda: a @ b, repeats=5, warmup=2)
    gflops = 2.0 * gemm_size**3 / t_gemm / 1e9

    table = rng.standard_normal((gather_rows, 64))
    idx = rng.integers(0, gather_rows, size=gather_rows // 2)
    t_gather = measure_median(lambda: table[idx], repeats=5, warmup=2)
    gbps = idx.size * 64 * 8 / t_gather / 1e9
    return HostProfile(gemm_gflops=gflops, gather_gbps=gbps)


class KernelCostModel:
    """Price kernels, transfers and gathers on a device.

    Parameters
    ----------
    host:
        Host calibration (defaults to the cached measurement).

    Notes
    -----
    Measured host times scale on two roofline axes:

    * compute-bound kernels (GEMM-shaped: MLPs) scale by
      ``host.gemm_gflops / device.effective_gflops``;
    * memory-bound kernels (gathers, scatters, dense embedding lookup)
      scale by ``host.gather_gbps / device.mem_bw_gbps``.

    TT contractions are not scaled from host time:
    :meth:`batched_kernel_time` prices them from their FLOP count.
    """

    def __init__(self, host: Optional[HostProfile] = None) -> None:
        self.host = host if host is not None else calibrate_host()

    # -- scaling measured kernels ----------------------------------------
    def scale_compute(self, host_seconds: float, device: DeviceSpec) -> float:
        """Device time of a compute-bound kernel measured on the host."""
        check_positive(host_seconds, "host_seconds", strict=False)
        return host_seconds * self.host.gemm_gflops / device.effective_gflops

    def scale_memory(self, host_seconds: float, device: DeviceSpec) -> float:
        """Device time of a memory-bound kernel measured on the host."""
        check_positive(host_seconds, "host_seconds", strict=False)
        return host_seconds * self.host.gather_gbps / device.mem_bw_gbps

    # -- analytic kernels --------------------------------------------------
    def batched_kernel_time(
        self, gflops: float, device: DeviceSpec
    ) -> float:
        """Analytic time of a batched-small-GEMM kernel from its FLOPs."""
        check_positive(gflops, "gflops", strict=False)
        return gflops / device.effective_batched_gflops

    def gather_time(
        self, num_rows: int, row_bytes: int, device: DeviceSpec
    ) -> float:
        """Memory-bound gather/scatter of ``num_rows`` rows."""
        bytes_moved = 2.0 * num_rows * row_bytes  # read + write
        return bytes_moved / (device.mem_bw_gbps * 1e9) + self.launch_time(device)

    def launch_time(self, device: DeviceSpec) -> float:
        return device.kernel_launch_us * 1e-6

    # -- transfers -----------------------------------------------------------
    def h2d_time(self, nbytes: float, device: DeviceSpec) -> float:
        """Host-to-device (or back) transfer time over PCIe."""
        check_positive(nbytes, "nbytes", strict=False)
        return nbytes / (device.h2d_gbps * 1e9) + 10e-6
