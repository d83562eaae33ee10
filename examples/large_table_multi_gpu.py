#!/usr/bin/env python
"""The Figure-13 scenario: one huge table, one (or a few) GPUs.

Shows (1) the placement arithmetic — a 40M x 128 dense table does not
fit a 16 GB GPU, its Eff-TT form does; (2) functional data-parallel
training with gradient AllReduce keeping replicas bit-synchronized;
(3) the modeled throughput of EL-Rec vs HugeCTR/TorchRec sharding.

Run:  python examples/large_table_multi_gpu.py
"""

import numpy as np

from repro.data.datasets import DatasetSpec, TableSpec
from repro.data.dataloader import SyntheticClickLog
from repro.embeddings import EffTTEmbeddingBag, plan_hbm_pack
from repro.models import DLRMConfig, EmbeddingBackend
from repro.reorder import analytic_table_stats
from repro.system import TESLA_V100
from repro.system.multi_gpu import DataParallelTrainer

ROWS_FULL = 40_000_000
DIM = 128
TT_RANK = 64


def main() -> None:
    # --- placement arithmetic (full-scale) ---------------------------
    dense_gb = ROWS_FULL * DIM * 4 / 1e9
    bag_spec = EffTTEmbeddingBag(ROWS_FULL, DIM, tt_rank=TT_RANK, seed=0).spec
    tt_gb = bag_spec.num_params * 4 / 1e9
    print("== the paper's 40M x 128 table ==")
    print(f"dense footprint : {dense_gb:6.1f} GB  "
          f"(> {TESLA_V100.hbm_bytes / 1e9:.0f} GB HBM -> cannot fit 1 GPU)")
    print(f"Eff-TT footprint: {tt_gb:6.3f} GB  (rank {TT_RANK}, "
          f"{bag_spec.compression_ratio():.0f}x smaller -> fits easily)")

    plan = plan_hbm_pack(
        analytic_table_stats([ROWS_FULL]), DIM,
        int(TESLA_V100.hbm_bytes * 0.8), tt_rank=TT_RANK,
        tt_threshold_rows=1_000_000,
    )
    print("placement plan  :")
    print(plan.format_table())

    # --- functional data-parallel training (scaled) ------------------
    print("\n== functional 4-replica data-parallel training (scaled) ==")
    spec = DatasetSpec(
        name="large-table",
        num_dense=4,
        tables=(TableSpec("big", 100_000, alpha=1.05),),
        num_samples=1_000_000,
        days=1,
        scale=100_000 / ROWS_FULL,
    )
    log = SyntheticClickLog(spec, batch_size=128, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=16, backend=EmbeddingBackend.EFF_TT, tt_rank=16,
        bottom_mlp=(32,), top_mlp=(32,),
    )
    trainer = DataParallelTrainer(cfg, num_replicas=4, seed=0)
    for i in range(10):
        loss = trainer.train_step(log.batch(i), lr=0.05)
        if i % 3 == 0:
            print(f"  step {i:2d}  global loss {loss:.4f}  "
                  f"replicas synchronized: {trainer.replicas_synchronized()}")

    # --- modeled throughput vs sharded baselines ----------------------
    print("\n== modeled throughput (see benchmarks/bench_fig13) ==")
    print("run: python benchmarks/bench_fig13_large_table.py")


if __name__ == "__main__":
    main()
