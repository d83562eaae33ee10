#!/usr/bin/env python
"""Pipelined parameter-server training with the embedding cache (§V).

Demonstrates the read-after-write conflict of naive prefetching and its
resolution: the largest tables live in host memory behind a parameter
server; batches are prefetched several steps ahead; the LC-managed
embedding cache keeps pipelined training *numerically identical* to
sequential training, while naive prefetching silently trains on stale
rows.

Run:  python examples/pipeline_training.py
"""

import numpy as np

from repro import SyntheticClickLog, criteo_kaggle_like
from repro.models import DLRM, DLRMConfig, EmbeddingBackend
from repro.models.dlrm import build_embedding_bag
from repro.sharding import ShardedParameterServer
from repro.system import (
    HostBackedEmbeddingBag,
    PipelinedPSTrainer,
    SequentialPSTrainer,
)

LR = 0.05
NUM_BATCHES = 40
PREFETCH_DEPTH = 4
GRAD_QUEUE_DEPTH = 2


def build(cfg, host_map, seed=7):
    """DLRM whose two largest tables are host-resident."""
    bags = []
    for t, rows in enumerate(cfg.table_rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(rows, cfg.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    cfg.backend_for_table(t), rows, cfg.embedding_dim,
                    cfg.tt_rank, seed=(100 + t),
                )
            )
    return DLRM(cfg, seed=seed, embedding_bags=bags)


def main() -> None:
    spec = criteo_kaggle_like(scale=5e-5)
    log = SyntheticClickLog(spec, batch_size=128, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=500, bottom_mlp=(32,), top_mlp=(32,),
    )
    rows = list(cfg.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    host_map = {p: i for i, p in enumerate(host_positions)}
    server_rows = [rows[p] for p in host_positions]
    print(f"host-resident tables: {host_positions} "
          f"({[f'{r:,} rows' for r in server_rows]})")

    runs = {}
    for label, pipelined, use_cache in (
        ("sequential", False, True),
        ("pipeline + embedding cache", True, True),
        ("pipeline, naive prefetch (no cache)", True, False),
    ):
        model = build(cfg, host_map)
        server = ShardedParameterServer(
            server_rows, cfg.embedding_dim, lr=LR, seed=3
        )
        if pipelined:
            trainer = PipelinedPSTrainer(
                model, server, host_map, lr=LR,
                prefetch_depth=PREFETCH_DEPTH,
                grad_queue_depth=GRAD_QUEUE_DEPTH,
                use_cache=use_cache,
            )
        else:
            trainer = SequentialPSTrainer(model, server, host_map, lr=LR)
        result = trainer.train(log, NUM_BATCHES)
        runs[label] = (server, result)
        extra = ""
        if pipelined and use_cache:
            extra = f"  (cache hits: {result.cache_hits})"
        if pipelined and not use_cache:
            extra = f"  (stale rows consumed: {result.stale_rows_consumed})"
        print(f"{label:38s} final loss {result.final_loss:.6f}{extra}")

    seq_server = runs["sequential"][0]
    cached_server = runs["pipeline + embedding cache"][0]
    stale_server = runs["pipeline, naive prefetch (no cache)"][0]

    cached_ok = all(
        np.array_equal(a, b)
        for a, b in zip(seq_server.tables, cached_server.tables)
    )
    stale_gap = max(
        np.abs(a - b).max()
        for a, b in zip(seq_server.tables, stale_server.tables)
    )
    print(f"\npipeline+cache == sequential (bitwise): {cached_ok}")
    print(f"naive prefetch parameter drift        : {stale_gap:.3e}")


if __name__ == "__main__":
    main()
