"""Figure 13: single very large embedding table (40M rows x dim 128).

The paper's stress test: a ~19 GB dense table exceeds one 16 GB GPU, so
HugeCTR must shard rows and TorchRec must shard columns across GPUs,
paying per-iteration collectives, while EL-Rec TT-compresses the table
onto every GPU and trains data-parallel with only a gradient AllReduce.

The dense gather + update is measured on a 1M-row stand-in (the kernel
is batch-size bound, not table-size bound); the TT kernels' FLOPs,
feasibility and communication use the true 40M-row table.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit, run_once
from repro.bench.harness import format_table
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.frameworks import ELRec, HugeCTR, TorchRec, WorkloadProfile
from repro.system.devices import TESLA_V100
from repro.utils.timer import measure_median

ROWS_FULL = 40_000_000
ROWS_MEASURE = 1_000_000
DIM = 128
BATCH = 4096
TT_RANK = 64
GPU_COUNTS = (1, 2, 4)


def _measure_profile() -> WorkloadProfile:
    rng = np.random.default_rng(0)
    # power-law indices over the measured stand-in table
    from repro.data.synthetic import ZipfSampler

    sampler = ZipfSampler(ROWS_MEASURE, alpha=1.05, seed=0)
    idx = sampler.sample(BATCH, rng)

    # dense gather+update time for the sharded baselines (memory-bound)
    table = np.zeros((ROWS_MEASURE, DIM), dtype=np.float32)

    def dense_cycle():
        rows = table[idx]
        np.add.at(table, idx, rows * 1e-9)

    t_dense = measure_median(dense_cycle, repeats=3)

    # the 40M-row TT footprint for feasibility/communication, and the
    # analytic FLOP counts at the *full* cardinality (at 40M rows a 4K
    # batch has essentially no duplicate indices, so reuse statistics
    # are computed on a representative full-size plan).
    from repro.embeddings.flops import plan_backward_flops, plan_forward_flops
    from repro.embeddings.reuse_buffer import build_reuse_plan

    full_spec = EffTTEmbeddingBag(ROWS_FULL, DIM, tt_rank=TT_RANK, seed=0).spec
    full_idx = ZipfSampler(ROWS_FULL, alpha=1.05, seed=1).sample(
        BATCH, np.random.default_rng(2)
    )
    full_plan = build_reuse_plan(full_idx, full_spec.row_shape)
    return WorkloadProfile(
        name="40M-table",
        batch_size=BATCH,
        embedding_dim=DIM,
        table_rows=(ROWS_FULL,),
        indices_per_batch=BATCH,
        host_mlp_time=1e-9,  # single-table experiment: no MLP
        host_dense_emb_time=t_dense,
        tt_param_bytes=full_spec.num_params * 4,
        tt_kernel_launches=8,
        efftt_kernel_launches=3,
        tt_gflops_fwd=plan_forward_flops(full_spec, full_plan, reuse=False)
        / 1e9,
        tt_gflops_bwd=plan_backward_flops(full_spec, full_plan, aggregate=False)
        / 1e9,
        efftt_gflops_fwd=plan_forward_flops(full_spec, full_plan, reuse=True)
        / 1e9,
        efftt_gflops_bwd=plan_backward_flops(
            full_spec, full_plan, aggregate=True
        )
        / 1e9,
    )


@pytest.fixture(scope="module")
def large_profile():
    return _measure_profile()


def build_fig13(cost_model, profile) -> str:
    rows = []
    for num_gpus in GPU_COUNTS:
        for F in (HugeCTR, TorchRec, ELRec):
            bd = F(cost_model).iteration_time(profile, TESLA_V100, num_gpus)
            throughput = (
                num_gpus * profile.batch_size / bd.total if bd.feasible else 0.0
            )
            rows.append(
                [
                    F.name,
                    num_gpus,
                    round(bd.total * 1e3, 3) if bd.feasible else "n/a",
                    f"{throughput / 1e3:.1f}K" if bd.feasible else "OOM",
                ]
            )
    return format_table(
        ["framework", "GPUs", "iter ms", "samples/s"],
        title=(
            "Figure 13: single 40M x 128 embedding table training "
            "throughput (dense table = 19.5 GB > 16 GB HBM)"
        ),
        rows=rows,
    )


def test_fig13_efftt_large_table_kernel(benchmark):
    rng = np.random.default_rng(1)
    from repro.data.synthetic import ZipfSampler

    sampler = ZipfSampler(ROWS_MEASURE, alpha=1.05, seed=0)
    idx = sampler.sample(BATCH, rng)
    grad = rng.standard_normal((BATCH, DIM))
    bag = EffTTEmbeddingBag(ROWS_MEASURE, DIM, tt_rank=TT_RANK, seed=0)

    def cycle():
        bag.forward(idx)
        bag.backward_and_step(grad, 0.01)

    benchmark(cycle)


def test_fig13_shapes(benchmark, cost_model, large_profile):
    emit("fig13_large_table", run_once(benchmark, lambda: build_fig13(cost_model, large_profile)))
    # 1 GPU: only EL-Rec feasible
    hc1 = HugeCTR(cost_model).iteration_time(large_profile, TESLA_V100, 1)
    tr1 = TorchRec(cost_model).iteration_time(large_profile, TESLA_V100, 1)
    el1 = ELRec(cost_model).iteration_time(large_profile, TESLA_V100, 1)
    assert not hc1.feasible and not tr1.feasible
    assert el1.feasible
    # 4 GPUs: paper reports EL-Rec at 1.07x over HugeCTR (near parity)
    # and 1.35x over TorchRec.  We pin: clearly ahead of TorchRec,
    # within the parity band of HugeCTR.
    el4 = ELRec(cost_model).iteration_time(large_profile, TESLA_V100, 4)
    hc4 = HugeCTR(cost_model).iteration_time(large_profile, TESLA_V100, 4)
    tr4 = TorchRec(cost_model).iteration_time(large_profile, TESLA_V100, 4)
    assert el4.total < tr4.total
    assert 0.7 < hc4.total / el4.total < 1.5


if __name__ == "__main__":
    from repro.system.devices import KernelCostModel

    print(build_fig13(KernelCostModel(), _measure_profile()))
