"""HugeCTR: model-parallel embedding sharding [18].

Strategy: split embedding tables row-wise across GPUs (each GPU owns a
slice of the rows); MLPs replicate data-parallel.  Every iteration pays
an all-to-all to route looked-up embeddings from their owner GPU to the
GPU training the sample (forward) and a second all-to-all for the
gradients (backward), plus the MLP AllReduce — the "intensive
peer-to-peer communication" the paper contrasts with EL-Rec's
replication (§VI-B, Figure 13).

Feasibility is :func:`~repro.embeddings.planner.row_shard_device_bytes`,
the same mod-N block arithmetic the table planner's row-shard rule and
the sharded parameter-server tier use, so the analytical framework
model and the functional simulation agree on what fits where.
"""

from __future__ import annotations

from typing import Dict

from repro.embeddings.planner import row_shard_device_bytes
from repro.frameworks.base import (
    HBM_USABLE_FRACTION, SYNC_OVERHEAD_S, Framework, TimeBreakdown,
    WorkloadProfile, mlp_param_bytes,
)
from repro.system.devices import DeviceSpec
from repro.system.multi_gpu import all2all_time, ring_allreduce_time

__all__ = ["HugeCTR"]


class HugeCTR(Framework):
    """Row-wise model-parallel embedding training."""

    name = "HugeCTR"

    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        shard_bytes = row_shard_device_bytes(
            profile.table_rows,
            num_gpus,
            profile.embedding_dim,
            profile.dtype_bytes,
        )
        if shard_bytes > int(device.hbm_bytes * HBM_USABLE_FRACTION):
            return self._infeasible(
                device,
                num_gpus,
                f"row shard ({shard_bytes / 1e9:.1f} GB) exceeds "
                "HBM; HugeCTR scales GPUs until the table fits",
            )
        shard = profile.shard(num_gpus)
        # Each GPU gathers the rows it owns for the *whole* global
        # batch (expected 1/K of all lookups), memory-bound.
        gpu_lookup = self.cost.scale_memory(
            profile.host_dense_emb_time / num_gpus, device
        )
        exchange = all2all_time(
            shard.embedding_transfer_bytes, num_gpus, device
        )
        gpu_mlp = self.cost.scale_compute(shard.host_mlp_time, device)
        allreduce = ring_allreduce_time(
            mlp_param_bytes(profile), num_gpus, device
        )
        return self._breakdown(
            device,
            num_gpus,
            gpu_embedding_lookup=gpu_lookup,
            all2all_forward=exchange,
            gpu_mlp=gpu_mlp,
            collective_sync=3 * SYNC_OVERHEAD_S * (num_gpus > 1),
            all2all_backward=exchange,
            mlp_allreduce=allreduce,
        )

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        return profile.dense_table_bytes  # per single GPU (unsharded)

    def table1_row(self) -> Dict[str, str]:
        return {
            "framework": "HugeCTR",
            "host_memory": "no",
            "embedding_compression": "no",
            "cpu_gpu_comm_latency": "n/a",
            "compression_overhead": "n/a",
        }
