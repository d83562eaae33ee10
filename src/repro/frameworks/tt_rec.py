"""TT-Rec: Tensor-Train compression with naive kernels [20].

Strategy: compress the large tables with TT so everything fits in one
GPU's HBM — eliminating host traffic — but pay the TT computation
overhead with per-occurrence lookup (no reuse buffer), per-occurrence
backward (no in-advance gradient aggregation), and a gradient
materialization before a separate optimizer pass (extra kernel
launches and data movement, §III-B).
"""

from __future__ import annotations

from typing import Dict

from repro.frameworks.base import Framework, TimeBreakdown, WorkloadProfile
from repro.system.devices import DeviceSpec
from repro.system.multi_gpu import ring_allreduce_time

__all__ = ["TTRec"]


class TTRec(Framework):
    """TT-compressed embeddings with TT-Rec's unoptimized kernels."""

    name = "TT-Rec"

    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        work = profile if num_gpus == 1 else profile.shard(num_gpus)
        # TT contractions are batched-small-GEMMs, priced from their
        # FLOP counts (free of host interpreter overhead).
        tt_fwd = self.cost.batched_kernel_time(work.tt_gflops_fwd, device)
        tt_bwd = self.cost.batched_kernel_time(work.tt_gflops_bwd, device)
        launches = profile.tt_kernel_launches * self.cost.launch_time(device)
        gpu_mlp = self.cost.scale_compute(work.host_mlp_time, device)
        components = {
            "tt_lookup": tt_fwd,
            "tt_backward_update": tt_bwd,
            "kernel_launches": launches,
            "gpu_mlp": gpu_mlp,
        }
        if num_gpus > 1:
            components["grad_allreduce"] = ring_allreduce_time(
                profile.tt_param_bytes, num_gpus, device
            )
        return self._breakdown(device, num_gpus, **components)

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        return profile.tt_param_bytes

    def table1_row(self) -> Dict[str, str]:
        return {
            "framework": "TT-Rec",
            "host_memory": "yes",
            "embedding_compression": "yes",
            "cpu_gpu_comm_latency": "n/a",
            "compression_overhead": "high",
        }
