"""Ablation: the cost of the read-after-write conflict (§II-A, §V-B).

The paper motivates the embedding cache by noting that naive
prefetching "will incur data consistency issues caused by
read-after-write conflict and slow down the model convergence".  This
ablation quantifies that: identical pipelined training runs with and
without the embedding cache, across prefetch depths (deeper pipelines
read staler rows), reporting stale-row counts, final-loss gaps and
parameter drift from the sequential ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit, run_once
from repro.bench.harness import format_table
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import PipelinedPSTrainer, SequentialPSTrainer

LR = 0.3  # aggressive rate magnifies the staleness effect
NUM_BATCHES = 60
DEPTHS = (2, 4, 8)


def _setup():
    spec = criteo_kaggle_like(scale=5e-5)
    log = SyntheticClickLog(spec, batch_size=128, seed=0, teacher_strength=3.0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=500, bottom_mlp=(32,), top_mlp=(32,),
    )
    rows = list(cfg.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:3]
    host_map = {p: i for i, p in enumerate(host_positions)}
    server_rows = [rows[p] for p in host_positions]
    return log, cfg, host_map, server_rows


def _train(depth, use_cache):
    log, cfg, host_map, server_rows = _setup()
    bags = []
    for t, rows in enumerate(cfg.table_rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(rows, cfg.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    cfg.backend_for_table(t), rows, cfg.embedding_dim,
                    cfg.tt_rank, seed=(700 + t),
                )
            )
    model = DLRM(cfg, seed=13, embedding_bags=bags)
    server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR, seed=2)
    if depth == 0:
        trainer = SequentialPSTrainer(model, server, host_map, lr=LR)
    else:
        trainer = PipelinedPSTrainer(
            model, server, host_map, lr=LR, prefetch_depth=depth,
            grad_queue_depth=max(1, depth // 2), use_cache=use_cache,
        )
    result = trainer.train(log, NUM_BATCHES)
    return server, result


def build_raw_conflict_ablation() -> str:
    seq_server, seq_result = _train(0, True)
    ground_truth_loss = float(np.mean(seq_result.losses[-10:]))
    rows = [["sequential (ground truth)", "-", 0, f"{ground_truth_loss:.5f}", 0.0]]
    for depth in DEPTHS:
        for use_cache in (True, False):
            server, result = _train(depth, use_cache)
            drift = max(
                float(np.abs(a - b).max())
                for a, b in zip(seq_server.tables, server.tables)
            )
            loss = float(np.mean(result.losses[-10:]))
            rows.append(
                [
                    "pipeline + cache" if use_cache else "naive prefetch",
                    depth,
                    result.stale_rows_consumed,
                    f"{loss:.5f}",
                    f"{drift:.2e}",
                ]
            )
    return format_table(
        [
            "configuration",
            "prefetch depth",
            "stale rows consumed",
            "final loss (avg last 10)",
            "max param drift vs sequential",
        ],
        rows,
        title=(
            "Ablation: RAW conflict — pipelined training with vs without "
            f"the embedding cache (lr={LR}, {NUM_BATCHES} batches)"
        ),
    )


def test_raw_conflict_step(benchmark):
    log, cfg, host_map, server_rows = _setup()
    bags = []
    for t, rows in enumerate(cfg.table_rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(rows, cfg.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    cfg.backend_for_table(t), rows, cfg.embedding_dim,
                    cfg.tt_rank, seed=(700 + t),
                )
            )
    model = DLRM(cfg, seed=13, embedding_bags=bags)
    server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR, seed=2)
    trainer = PipelinedPSTrainer(
        model, server, host_map, lr=LR, prefetch_depth=4,
        grad_queue_depth=2, use_cache=True,
    )
    state = {"i": 0}

    def window():
        out = trainer.train(log, 4, start=state["i"])
        state["i"] += 4
        return out

    result = benchmark(window)
    assert len(result.losses) == 4


def test_raw_conflict_shapes(benchmark):
    emit(
        "ablation_raw_conflict",
        run_once(benchmark, build_raw_conflict_ablation),
    )
    seq_server, _ = _train(0, True)
    cached_server, cached = _train(4, True)
    stale_server, stale = _train(4, False)
    # cache: zero drift (bitwise); no cache: consumed stale rows + drift
    for a, b in zip(seq_server.tables, cached_server.tables):
        np.testing.assert_array_equal(a, b)
    assert cached.stale_rows_consumed == 0
    assert stale.stale_rows_consumed > 0
    drift = max(
        float(np.abs(a - b).max())
        for a, b in zip(seq_server.tables, stale_server.tables)
    )
    assert drift > 0.0


if __name__ == "__main__":
    print(build_raw_conflict_ablation())
