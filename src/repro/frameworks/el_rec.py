"""EL-Rec: the paper's framework (Eff-TT + reordering + pipeline).

Strategy: TT-compress the large tables with Eff-TT kernels (reuse
buffer, in-advance gradient aggregation, fused update) and replicate
them in HBM; train data-parallel across GPUs with a single gradient
AllReduce; when even the compressed model outgrows HBM, spill tables to
host memory behind the 3-stage pipeline with the embedding cache, which
overlaps CPU gather/update and transfers with GPU compute.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.frameworks.base import (
    SYNC_OVERHEAD_S, Framework, TimeBreakdown, WorkloadProfile,
)
from repro.system.devices import DeviceSpec
from repro.system.multi_gpu import ring_allreduce_time
from repro.system.pipeline import pipeline_schedule

__all__ = ["ELRec"]


class ELRec(Framework):
    """The paper's framework model."""

    name = "EL-Rec"

    def iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        num_gpus: int = 1,
    ) -> TimeBreakdown:
        work = profile if num_gpus == 1 else profile.shard(num_gpus)
        # Eff-TT contractions are batched-small-GEMMs, priced from
        # their FLOP counts.
        eff_fwd = self.cost.batched_kernel_time(work.efftt_gflops_fwd, device)
        eff_bwd = self.cost.batched_kernel_time(work.efftt_gflops_bwd, device)
        launches = profile.efftt_kernel_launches * self.cost.launch_time(device)
        gpu_mlp = self.cost.scale_compute(work.host_mlp_time, device)
        components = {
            "efftt_lookup": eff_fwd,
            "efftt_backward_fused_update": eff_bwd,
            "kernel_launches": launches,
            "gpu_mlp": gpu_mlp,
        }
        if num_gpus > 1:
            # Data-parallel training overlaps the gradient AllReduce
            # with backward compute (standard DDP bucketing): only the
            # residual beyond the backward window hits the critical
            # path.  Model-parallel baselines cannot overlap their
            # forward all-to-all — it produces the activations.
            allreduce = ring_allreduce_time(
                profile.tt_param_bytes, num_gpus, device
            )
            backward_window = eff_bwd + (2.0 / 3.0) * gpu_mlp
            components["grad_allreduce_exposed"] = (
                max(0.0, allreduce - backward_window) + SYNC_OVERHEAD_S
            )
        return self._breakdown(device, num_gpus, **components)

    def pipelined_iteration_time(
        self,
        profile: WorkloadProfile,
        device: DeviceSpec,
        host_fraction: float,
        prefetch_depth: int = 4,
        num_iterations: int = 64,
        pipelined: bool = True,
    ) -> TimeBreakdown:
        """Iteration time with ``host_fraction`` of tables host-resident.

        Three stages (paper Figure 9): CPU embedding gather + update
        for the host tables; H2D prefetch + D2H gradient transfer; GPU
        compute (MLPs + Eff-TT tables).  ``pipelined=False`` models
        "EL-Rec (Sequential)": the stages serialize, as
        ``pipeline_schedule`` at prefetch depth 1 does.
        """
        if not 0 <= host_fraction <= 1:
            raise ValueError(
                f"host_fraction must be in [0, 1], got {host_fraction}"
            )
        cpu_stage = profile.host_dense_emb_time * host_fraction
        transfer_bytes = profile.embedding_transfer_bytes * host_fraction
        transfer_stage = 2.0 * self.cost.h2d_time(transfer_bytes, device)
        tt_time = self.cost.batched_kernel_time(
            profile.efftt_gflops_fwd + profile.efftt_gflops_bwd, device
        )
        gpu_stage = (
            self.cost.scale_compute(profile.host_mlp_time, device)
            + tt_time
            + profile.efftt_kernel_launches * self.cost.launch_time(device)
        )
        stage_times = np.tile(
            [cpu_stage, transfer_stage, gpu_stage], (num_iterations, 1)
        )
        if pipelined:
            schedule = pipeline_schedule(stage_times, prefetch_depth)
            per_iter = schedule.makespan / num_iterations
            return self._breakdown(device, 1, pipelined_iteration=per_iter)
        return self._breakdown(
            device,
            1,
            cpu_embedding=cpu_stage,
            transfers=transfer_stage,
            gpu_compute=gpu_stage,
        )

    def gpu_embedding_bytes(self, profile: WorkloadProfile) -> int:
        return profile.tt_param_bytes

    def table1_row(self) -> Dict[str, str]:
        return {
            "framework": "EL-Rec",
            "host_memory": "yes",
            "embedding_compression": "yes",
            "cpu_gpu_comm_latency": "low",
            "compression_overhead": "low",
        }
