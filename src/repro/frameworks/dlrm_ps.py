"""Facebook DLRM in CPU+GPU (parameter-server) mode [23].

Strategy: the full dense embedding tables live in host memory; the CPU
performs the sparse lookup/pooling and the sparse update; pooled
embeddings are copied to the GPU every iteration and their gradients
copied back; the GPU trains the MLPs.  Nothing overlaps — the paper
(§I) identifies exactly this serialization plus transfer latency as the
PS bottleneck EL-Rec removes.
"""

from __future__ import annotations

from typing import Dict

from repro.frameworks.base import (
    HBM_USABLE_FRACTION, SYNC_OVERHEAD_S, Framework, TimeBreakdown,
    WorkloadProfile, mlp_param_bytes,
)
from repro.system.devices import DeviceSpec
from repro.system.multi_gpu import all2all_time, ring_allreduce_time

__all__ = ["DlrmPS"]


class DlrmPS(Framework):
    """DLRM with host-resident embeddings and CPU-side sparse ops."""

    name = "DLRM"

    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        if num_gpus == 1:
            return self._single_gpu(profile, device)
        return self._multi_gpu(profile, device, num_gpus)

    def _single_gpu(
        self, profile: WorkloadProfile, device: DeviceSpec
    ) -> TimeBreakdown:
        # CPU-side embedding work runs at host speed (it *is* a CPU).
        cpu_embedding = profile.host_dense_emb_time
        transfer_down = self.cost.h2d_time(profile.embedding_transfer_bytes, device)
        gpu_mlp = self.cost.scale_compute(profile.host_mlp_time, device)
        transfer_up = self.cost.h2d_time(profile.embedding_transfer_bytes, device)
        return self._breakdown(
            device,
            1,
            cpu_embedding=cpu_embedding,
            h2d_embeddings=transfer_down,
            gpu_mlp=gpu_mlp,
            d2h_gradients=transfer_up,
        )

    def _multi_gpu(
        self, profile: WorkloadProfile, device: DeviceSpec, num_gpus: int
    ) -> TimeBreakdown:
        """Hybrid-parallel DLRM: sharded embeddings on GPUs, DP MLPs.

        With enough aggregate HBM the tables move onto the GPUs
        (model-parallel); each iteration pays an all-to-all to route
        pooled embeddings to the data-parallel MLP shards, a second
        all-to-all for their gradients, and an MLP gradient AllReduce.
        """
        total_hbm = device.hbm_bytes * HBM_USABLE_FRACTION * num_gpus
        if profile.dense_table_bytes > total_hbm:
            return self._infeasible(
                device,
                num_gpus,
                f"dense tables ({profile.dense_table_bytes / 1e9:.1f} GB) exceed "
                f"{num_gpus}x HBM",
            )
        shard = profile.shard(num_gpus)
        gpu_lookup = self.cost.scale_memory(profile.host_dense_emb_time, device)
        # The hybrid-parallel reference implementation exchanges each
        # table's pooled embeddings separately (unfused all-to-all).
        exchange = all2all_time(
            shard.embedding_transfer_bytes,
            num_gpus,
            device,
            num_messages=profile.num_tables,
        )
        gpu_mlp = self.cost.scale_compute(shard.host_mlp_time, device)
        mlp_bytes = mlp_param_bytes(profile)
        allreduce = ring_allreduce_time(mlp_bytes, num_gpus, device)
        return self._breakdown(
            device,
            num_gpus,
            gpu_embedding_lookup=gpu_lookup,
            all2all_forward=exchange,
            gpu_mlp=gpu_mlp,
            all2all_backward=exchange,
            mlp_allreduce=allreduce,
            collective_sync=3 * SYNC_OVERHEAD_S,
        )

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        # Single-GPU CPU+GPU mode keeps embeddings on the host.
        return 0

    def table1_row(self) -> Dict[str, str]:
        return {
            "framework": "DLRM",
            "host_memory": "yes",
            "embedding_compression": "no",
            "cpu_gpu_comm_latency": "high",
            "compression_overhead": "n/a",
        }
