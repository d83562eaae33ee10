"""Tests for the framework strategy models.

These tests pin the paper's qualitative results: orderings, crossover
behaviour, and feasibility boundaries — not absolute times.
"""

import numpy as np
import pytest

from repro.frameworks import (
    ALL_FRAMEWORKS,
    DlrmPS,
    ELRec,
    FAE,
    HugeCTR,
    TorchRec,
    TTRec,
    WorkloadProfile,
)
from repro.system.devices import (
    HostProfile,
    KernelCostModel,
    TESLA_T4,
    TESLA_V100,
)


@pytest.fixture(scope="module")
def cost():
    # Fixed synthetic calibration: deterministic tests.
    return KernelCostModel(HostProfile(gemm_gflops=100.0, gather_gbps=10.0))


@pytest.fixture(scope="module")
def profile():
    """A Criteo-Kaggle-shaped workload with representative kernel costs.

    Costs reflect the measured substrate relationships: Eff-TT needs
    fewer FLOPs than TT-Rec (reuse + aggregation), dense CPU-side work
    is substantial, MLP dominates GPU compute.
    """
    return WorkloadProfile(
        name="criteo-kaggle",
        batch_size=4096,
        embedding_dim=64,
        table_rows=(10_131_227, 8_351_593, 5_461_306, 2_202_608, 100_000) + (1000,) * 21,
        indices_per_batch=4096 * 26,
        host_mlp_time=0.080,
        host_dense_emb_time=0.060,
        tt_gflops_fwd=0.5,
        tt_gflops_bwd=5.0,
        efftt_gflops_fwd=0.2,
        efftt_gflops_bwd=1.2,
        hot_fraction=0.75,
        tt_param_bytes=int(40e6),
    )


class TestPaperFig11Ordering:
    """Single-GPU end-to-end: EL-Rec > FAE/TT-Rec > DLRM (Fig. 11)."""

    @pytest.mark.parametrize("device", [TESLA_V100, TESLA_T4])
    def test_el_rec_fastest(self, cost, profile, device):
        times = {
            F.name: F(cost).iteration_time(profile, device).total
            for F in (DlrmPS, FAE, TTRec, ELRec)
        }
        assert times["EL-Rec"] == min(times.values())
        assert times["DLRM"] == max(times.values())

    def test_speedup_magnitudes(self, cost, profile):
        dlrm = DlrmPS(cost).iteration_time(profile, TESLA_V100)
        el = ELRec(cost).iteration_time(profile, TESLA_V100)
        fae = FAE(cost).iteration_time(profile, TESLA_V100)
        ttr = TTRec(cost).iteration_time(profile, TESLA_V100)
        # paper: ~3x over DLRM, ~1.5x over FAE, ~1.4x over TT-Rec.  Our
        # CPU substrate exaggerates the DLRM baseline's CPU-side cost
        # (single host thread vs the paper's Xeon), so upper bounds are
        # loose; the *ordering* and >1 factors are the pinned claims.
        assert 1.5 < el.speedup_over(dlrm) < 120
        assert 1.1 < el.speedup_over(fae) < 60
        assert 1.05 < el.speedup_over(ttr) < 20

    def test_el_rec_beats_tt_rec_more_on_backward_heavy(self, cost, profile):
        el = ELRec(cost).iteration_time(profile, TESLA_V100)
        ttr = TTRec(cost).iteration_time(profile, TESLA_V100)
        assert (
            ttr.components["tt_backward_update"]
            > el.components["efftt_backward_fused_update"]
        )

    def test_throughput_helper(self, cost, profile):
        bd = ELRec(cost).iteration_time(profile, TESLA_V100)
        assert bd.throughput(4096) == pytest.approx(4096 / bd.total)


class TestPaperFig12MultiGpu:
    def test_el_rec_scales_with_gpus(self, cost, profile):
        el = ELRec(cost)
        t1 = el.iteration_time(profile, TESLA_V100, num_gpus=1).total
        t4 = el.iteration_time(profile, TESLA_V100, num_gpus=4).total
        assert t4 < t1  # more GPUs -> faster iterations

    def test_el_rec_4gpu_beats_dlrm_4gpu(self, cost, profile):
        el = ELRec(cost).iteration_time(profile, TESLA_V100, num_gpus=4)
        dl = DlrmPS(cost).iteration_time(profile, TESLA_V100, num_gpus=4)
        assert el.feasible and dl.feasible
        assert el.total < dl.total

    def test_dlrm_multi_gpu_infeasible_when_tables_too_big(self, cost):
        huge = WorkloadProfile(
            name="huge",
            batch_size=4096,
            embedding_dim=128,
            table_rows=(500_000_000,),
            indices_per_batch=4096,
            host_mlp_time=0.05,
            host_dense_emb_time=0.01,
            tt_gflops_fwd=0.1,
            tt_gflops_bwd=0.5,
            efftt_gflops_fwd=0.05,
            efftt_gflops_bwd=0.2,
            tt_param_bytes=int(10e6),
        )
        bd = DlrmPS(cost).iteration_time(huge, TESLA_V100, num_gpus=4)
        assert not bd.feasible
        assert bd.throughput(4096) == 0.0


class TestPaperFig13LargeTable:
    @pytest.fixture
    def large_table(self):
        """The paper's 40M x 128 table (~19 GB dense, exceeds 16 GB HBM)."""
        return WorkloadProfile(
            name="40M-table",
            batch_size=4096,
            embedding_dim=128,
            table_rows=(40_000_000,),
            indices_per_batch=4096,
            host_mlp_time=0.040,
            host_dense_emb_time=0.010,
            tt_gflops_fwd=0.08,
            tt_gflops_bwd=0.6,
            efftt_gflops_fwd=0.04,
            efftt_gflops_bwd=0.2,
            tt_param_bytes=int(25e6),
        )

    def test_dense_frameworks_infeasible_on_one_gpu(self, cost, large_table):
        for F in (HugeCTR, TorchRec):
            bd = F(cost).iteration_time(large_table, TESLA_V100, num_gpus=1)
            assert not bd.feasible

    def test_el_rec_feasible_on_one_gpu(self, cost, large_table):
        bd = ELRec(cost).iteration_time(large_table, TESLA_V100, num_gpus=1)
        assert bd.feasible
        assert ELRec(cost).fits_single_gpu(large_table, TESLA_V100)
        assert not HugeCTR(cost).fits_single_gpu(large_table, TESLA_V100)

    def test_el_rec_beats_sharded_baselines_at_4gpus(self, cost, large_table):
        el = ELRec(cost).iteration_time(large_table, TESLA_V100, num_gpus=4)
        hc = HugeCTR(cost).iteration_time(large_table, TESLA_V100, num_gpus=4)
        tr = TorchRec(cost).iteration_time(large_table, TESLA_V100, num_gpus=4)
        assert hc.feasible and tr.feasible
        assert el.total < hc.total
        assert el.total < tr.total


class TestPaperFig16Pipeline:
    def test_pipeline_beats_sequential(self, cost, profile):
        el = ELRec(cost)
        pipe = el.pipelined_iteration_time(
            profile, TESLA_V100, host_fraction=0.5, prefetch_depth=4
        )
        seq = el.pipelined_iteration_time(
            profile, TESLA_V100, host_fraction=0.5, pipelined=False
        )
        assert pipe.total < seq.total

    def test_zero_host_fraction_matches_pure_gpu_stage(self, cost, profile):
        el = ELRec(cost)
        pipe = el.pipelined_iteration_time(
            profile, TESLA_V100, host_fraction=0.0, prefetch_depth=4
        )
        assert pipe.total > 0

    def test_invalid_fraction(self, cost, profile):
        with pytest.raises(ValueError):
            ELRec(cost).pipelined_iteration_time(
                profile, TESLA_V100, host_fraction=1.5
            )


class TestTable1:
    def test_all_frameworks_report_rows(self, cost):
        for F in ALL_FRAMEWORKS:
            row = F(cost).table1_row()
            assert "framework" in row

    def test_paper_table1_contents(self, cost):
        el = ELRec(cost).table1_row()
        assert el["cpu_gpu_comm_latency"] == "low"
        assert el["compression_overhead"] == "low"
        tt = TTRec(cost).table1_row()
        assert tt["compression_overhead"] == "high"
        dl = DlrmPS(cost).table1_row()
        assert dl["embedding_compression"] == "no"
        assert dl["cpu_gpu_comm_latency"] == "high"


class TestWorkloadProfile:
    def test_shard_scales_times(self, profile):
        half = profile.shard(2)
        assert half.batch_size == profile.batch_size // 2
        assert half.host_mlp_time == pytest.approx(profile.host_mlp_time / 2)

    def test_transfer_bytes(self, profile):
        assert (
            profile.embedding_transfer_bytes
            == 4096 * 26 * 64 * 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="x", batch_size=0, embedding_dim=1, table_rows=(1,),
                indices_per_batch=1, host_mlp_time=1, host_dense_emb_time=1,
                tt_gflops_fwd=10, tt_gflops_bwd=10,
                efftt_gflops_fwd=10, efftt_gflops_bwd=10,
            )
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="x", batch_size=1, embedding_dim=1, table_rows=(1,),
                indices_per_batch=1, host_mlp_time=-1, host_dense_emb_time=1,
                tt_gflops_fwd=10, tt_gflops_bwd=10,
                efftt_gflops_fwd=10, efftt_gflops_bwd=10,
            )
