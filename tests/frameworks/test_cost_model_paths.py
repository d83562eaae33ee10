"""Tests for the analytic TT-kernel projection and collective details."""

import pytest

from repro.frameworks import ELRec, TTRec, WorkloadProfile
from repro.system.devices import HostProfile, KernelCostModel, TESLA_V100
from repro.system.multi_gpu import all2all_time, allgather_time


@pytest.fixture(scope="module")
def cost():
    return KernelCostModel(HostProfile(gemm_gflops=100.0, gather_gbps=10.0))


def _profile(**overrides):
    base = dict(
        name="x",
        batch_size=1024,
        embedding_dim=32,
        table_rows=(1_000_000,),
        indices_per_batch=1024,
        host_mlp_time=0.01,
        host_dense_emb_time=0.01,
        tt_gflops_fwd=0.8,
        tt_gflops_bwd=3.2,
        efftt_gflops_fwd=0.4,
        efftt_gflops_bwd=1.6,
        tt_param_bytes=int(1e6),
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestAnalyticProjection:
    def test_flops_path_used_when_available(self, cost):
        with_flops = _profile(
            efftt_gflops_fwd=1.0, efftt_gflops_bwd=2.0
        )
        bd_flops = ELRec(cost).iteration_time(with_flops, TESLA_V100)
        expected = 1.0 / TESLA_V100.effective_batched_gflops
        assert bd_flops.components["efftt_lookup"] == pytest.approx(expected)

    def test_tt_rec_flops_path(self, cost):
        prof = _profile(tt_gflops_fwd=2.0, tt_gflops_bwd=4.0)
        bd = TTRec(cost).iteration_time(prof, TESLA_V100)
        assert bd.components["tt_lookup"] == pytest.approx(
            2.0 / TESLA_V100.effective_batched_gflops
        )

    def test_flops_shard_scaling(self, cost):
        prof = _profile(efftt_gflops_fwd=4.0, efftt_gflops_bwd=4.0)
        half = prof.shard(4)
        assert half.efftt_gflops_fwd == pytest.approx(1.0)

    def test_batched_kernel_time_validation(self, cost):
        with pytest.raises(ValueError):
            cost.batched_kernel_time(-1.0, TESLA_V100)
        assert cost.batched_kernel_time(0.0, TESLA_V100) == 0.0


class TestCollectiveMessages:
    def test_per_message_latency(self):
        fused = all2all_time(1e6, 4, TESLA_V100, latency_s=1e-4, num_messages=1)
        unfused = all2all_time(
            1e6, 4, TESLA_V100, latency_s=1e-4, num_messages=26
        )
        assert unfused - fused == pytest.approx(25 * 3 * 1e-4)

    def test_allgather_messages(self):
        fused = allgather_time(1e6, 4, TESLA_V100, latency_s=1e-4)
        per_shard = allgather_time(
            1e6, 4, TESLA_V100, latency_s=1e-4, num_messages=4
        )
        assert per_shard > fused

    def test_invalid_messages(self):
        with pytest.raises(ValueError):
            all2all_time(1e6, 4, TESLA_V100, num_messages=0)
