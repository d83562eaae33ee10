"""TorchRec: column-wise sharded embedding training [40].

Strategy ("4D parallelism" [16], column-wise variant as the paper
describes for the large-table experiment): each GPU holds a
``dim / K`` column slice of every row.  Forward gathers the local
columns for the whole batch on every GPU and runs an allgather to
assemble full-width embeddings; backward reverses the movement (a
reduce-scatter, same ring cost); MLPs replicate data-parallel.
"""

from __future__ import annotations

from typing import Dict

from repro.frameworks.base import (
    HBM_USABLE_FRACTION, SYNC_OVERHEAD_S, Framework, TimeBreakdown,
    WorkloadProfile, mlp_param_bytes,
)
from repro.system.devices import DeviceSpec
from repro.system.multi_gpu import allgather_time, ring_allreduce_time

__all__ = ["TorchRec"]


class TorchRec(Framework):
    """Column-wise model-parallel embedding training."""

    name = "TorchRec"

    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        per_gpu_bytes = profile.dense_table_bytes / num_gpus
        if per_gpu_bytes > device.hbm_bytes * HBM_USABLE_FRACTION:
            return self._infeasible(
                device,
                num_gpus,
                f"column shard ({per_gpu_bytes / 1e9:.1f} GB) exceeds HBM",
            )
        shard = profile.shard(num_gpus)
        # Column sharding: each GPU touches every looked-up row but
        # only dim/K columns — same total bytes/K, memory-bound.
        gpu_lookup = self.cost.scale_memory(
            profile.host_dense_emb_time / num_gpus, device
        )
        # Allgather assembles full-width embeddings for the local batch
        # shard; each GPU contributes its column slice of that shard.
        # Column-wise sharding creates one shard module per device and
        # launches its collectives per shard (unfused), unlike
        # HugeCTR's single fused exchange — the implementation gap
        # behind the paper's 1.35x vs 1.07x margins in Figure 13.
        slice_bytes = shard.embedding_transfer_bytes / num_gpus
        gather = allgather_time(
            slice_bytes, num_gpus, device, num_messages=num_gpus
        )
        gpu_mlp = self.cost.scale_compute(shard.host_mlp_time, device)
        allreduce = ring_allreduce_time(
            mlp_param_bytes(profile), num_gpus, device
        )
        return self._breakdown(
            device,
            num_gpus,
            gpu_embedding_lookup=gpu_lookup,
            allgather_forward=gather,
            gpu_mlp=gpu_mlp,
            collective_sync=3 * SYNC_OVERHEAD_S * (num_gpus > 1),
            reduce_scatter_backward=gather,
            mlp_allreduce=allreduce,
        )

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        return profile.dense_table_bytes

    def table1_row(self) -> Dict[str, str]:
        return {
            "framework": "TorchRec",
            "host_memory": "no",
            "embedding_compression": "no",
            "cpu_gpu_comm_latency": "n/a",
            "compression_overhead": "n/a",
        }
