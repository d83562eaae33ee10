"""Shared framework interface, workload profile, and time breakdowns."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.system.devices import DeviceSpec, KernelCostModel
from repro.utils.validation import check_positive

__all__ = [
    "WorkloadProfile", "TimeBreakdown", "Framework",
    "SYNC_OVERHEAD_S", "HBM_USABLE_FRACTION", "mlp_param_bytes",
]

# Per-collective synchronization cost (stream sync + NCCL coordination)
# observed on real multi-GPU training stacks.
SYNC_OVERHEAD_S = 50e-6
# Share of a device's HBM a framework may fill with embeddings (the
# rest holds activations, workspace and the allocator's slack).
HBM_USABLE_FRACTION = 0.8


@dataclass(frozen=True)
class WorkloadProfile:
    """One DLRM workload: *measured* host times plus analytic TT FLOPs.

    The benchmark harness measures the MLP and dense-embedding kernels
    once on real NumPy implementations (the substrate) and counts the
    TT kernels' FLOPs on the same batch; every framework composes
    iteration time from the same profile — strategies differ, the
    substrate does not.

    Attributes
    ----------
    name:
        Workload label (dataset name).
    batch_size, embedding_dim:
        Training configuration.
    table_rows:
        Cardinality per sparse table.
    indices_per_batch:
        Total sparse index occurrences per batch (all tables).
    host_mlp_time:
        Host seconds for bottom+top MLP fwd+bwd plus interaction.
    host_dense_emb_time:
        Host seconds for dense gather + pool + sparse update over all
        tables (the CPU-side PS work and the GPU dense-lookup kernel,
        scaled per roofline axis).
    hot_fraction:
        Fraction of batches that touch only GPU-cached hot rows (FAE's
        profiling; the paper reports ~75%).
    tt_kernel_launches / efftt_kernel_launches:
        Kernel-launch counts per iteration for the compressed paths
        (the fused update removes launches).
    """

    name: str
    batch_size: int
    embedding_dim: int
    table_rows: Tuple[int, ...]
    indices_per_batch: int
    host_mlp_time: float
    host_dense_emb_time: float
    hot_fraction: float = 0.75
    tt_kernel_launches: int = 24
    efftt_kernel_launches: int = 8
    tt_param_bytes: int = 0
    dtype_bytes: int = 4
    # Analytic per-iteration FLOP counts for the TT kernels (GFLOPs,
    # summed over all compressed tables): TT-Rec's naive kernels and
    # Eff-TT's reuse + aggregation kernels.  Framework models price a
    # TT kernel as flops / batched-GEMM throughput, free of the
    # interpreter overhead a host wall clock would carry.
    tt_gflops_fwd: float = 0.0
    tt_gflops_bwd: float = 0.0
    efftt_gflops_fwd: float = 0.0
    efftt_gflops_bwd: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.batch_size, "batch_size")
        check_positive(self.embedding_dim, "embedding_dim")
        if not 0 <= self.hot_fraction <= 1:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        for attr in ("host_mlp_time", "host_dense_emb_time"):
            check_positive(getattr(self, attr), attr, strict=False)

    @property
    def num_tables(self) -> int:
        return len(self.table_rows)

    @property
    def embedding_transfer_bytes(self) -> int:
        """Bytes of pooled embeddings (or their grads) for one batch."""
        return (
            self.batch_size
            * self.num_tables
            * self.embedding_dim
            * self.dtype_bytes
        )

    @property
    def dense_table_bytes(self) -> int:
        """Uncompressed embedding parameter footprint."""
        return sum(self.table_rows) * self.embedding_dim * self.dtype_bytes

    def shard(self, num_shards: int) -> "WorkloadProfile":
        """Per-device workload under data parallelism (batch split).

        Kernel times for batched ops scale ~linearly in batch size;
        that is slightly optimistic for small shards, which *favors the
        baselines* (they shard more), keeping the comparison fair.
        """
        check_positive(num_shards, "num_shards")
        f = 1.0 / num_shards
        return replace(
            self,
            batch_size=max(1, self.batch_size // num_shards),
            indices_per_batch=max(1, self.indices_per_batch // num_shards),
            host_mlp_time=self.host_mlp_time * f,
            host_dense_emb_time=self.host_dense_emb_time * f,
            tt_gflops_fwd=self.tt_gflops_fwd * f,
            tt_gflops_bwd=self.tt_gflops_bwd * f,
            efftt_gflops_fwd=self.efftt_gflops_fwd * f,
            efftt_gflops_bwd=self.efftt_gflops_bwd * f,
        )


@dataclass
class TimeBreakdown:
    """Per-component iteration time for one framework on one device."""

    framework: str
    device: str
    num_gpus: int
    components: Dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    infeasible_reason: str = ""

    @property
    def total(self) -> float:
        # fsum is order-insensitive (correctly rounded), so the total
        # is bitwise-stable no matter how components were inserted.
        return math.fsum(self.components.values())

    def throughput(self, batch_size: int) -> float:
        """Samples per second (0 when infeasible)."""
        if not self.feasible or self.total <= 0:
            return 0.0
        return batch_size / self.total

    def speedup_over(self, other: "TimeBreakdown") -> float:
        """How much faster this framework is than ``other``."""
        if not (self.feasible and other.feasible) or self.total <= 0:
            return 0.0
        return other.total / self.total


class Framework(abc.ABC):
    """One DLRM training framework's strategy model."""

    name: str = "framework"

    def __init__(self, cost_model: Optional[KernelCostModel] = None) -> None:
        self.cost = cost_model if cost_model is not None else KernelCostModel()

    @abc.abstractmethod
    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        """Model one training iteration; returns the component breakdown."""

    @abc.abstractmethod
    def table1_row(self) -> Dict[str, str]:
        """This framework's qualitative row in the paper's Table I."""

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        """Embedding bytes this framework must place in one GPU's HBM."""
        return profile.dense_table_bytes

    def fits_single_gpu(self, profile: WorkloadProfile, device: DeviceSpec) -> bool:
        return (
            self.gpu_embedding_bytes(profile)
            <= device.hbm_bytes * HBM_USABLE_FRACTION
        )

    def _breakdown(
        self, device: DeviceSpec, num_gpus: int, **components: float
    ) -> TimeBreakdown:
        return TimeBreakdown(
            framework=self.name,
            device=device.name,
            num_gpus=num_gpus,
            components={k: float(v) for k, v in components.items()},
        )

    def _infeasible(
        self, device: DeviceSpec, num_gpus: int, reason: str
    ) -> TimeBreakdown:
        return TimeBreakdown(
            framework=self.name,
            device=device.name,
            num_gpus=num_gpus,
            components={},
            feasible=False,
            infeasible_reason=reason,
        )


def mlp_param_bytes(profile: WorkloadProfile) -> int:
    """Rough dense-parameter footprint for the MLP AllReduce payload.

    DLRM MLPs are small relative to embeddings; a fixed estimate from
    the standard configuration (a few MB) is accurate enough for the
    collective's cost.
    """
    hidden = 512
    layers = 6
    return layers * hidden * hidden * profile.dtype_bytes
