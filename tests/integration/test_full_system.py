"""Whole-system integration: every major subsystem in one scenario.

A miniature end-to-end EL-Rec deployment exercising, in one flow:
placement planning → bag construction → index reordering →
pipelined PS training with the embedding cache → checkpointing the
worker and the server → restoring both and continuing training
bit-identically.
"""

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.planner import build_bags, plan_hbm_pack
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, table_seeds
from repro.reorder import analytic_table_stats, build_bijection
from repro.resilience.checkpoint import (
    capture_trainer_arrays,
    restore_trainer_arrays,
)
from repro.sharding import ShardedParameterServer
from repro.system.pipeline import PipelinedPSTrainer, SequentialPSTrainer

TINY_HBM = 8_000  # bytes: one TT table, most small tables, a few spills
LR = 0.05


@pytest.fixture(scope="module")
def scenario():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=0)
    rows = [t.num_rows for t in spec.tables]
    plan = plan_hbm_pack(
        analytic_table_stats(rows), 8, TINY_HBM, tt_rank=8,
        tt_threshold_rows=100,
    )
    assert {t.kind for t in plan.tables} == {"eff_tt", "dense", "host"}
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    # offline reordering for the TT tables only
    bijections = [
        build_bijection(
            log.table_index_stream(entry.table_idx, 6), entry.num_rows,
            hot_ratio=0.05, seed=0,
        )
        if entry.kind == "eff_tt"
        else None
        for entry in plan.tables
    ]
    return spec, log, plan, cfg, bijections


class _Remapped:
    """The log seen through the per-table bijections."""

    def __init__(self, log, bijections):
        self.log, self.bijections = log, bijections

    def batch(self, i):
        return self.log.batch(i).remap(self.bijections)


def _build(scenario, seed=11):
    """(host_table_map, model, server) the plan describes."""
    spec, log, plan, cfg, bijections = scenario
    model = DLRM(
        cfg, seed=seed,
        embedding_bags=build_bags(plan, table_seeds(seed, cfg.num_tables)),
    )
    positions = plan.server_positions()
    server = ShardedParameterServer(
        [cfg.table_rows[p] for p in positions], 8, lr=LR, seed=seed
    )
    return {p: i for i, p in enumerate(positions)}, model, server


class TestFullSystem:
    def test_pipelined_training_with_reordering(self, scenario):
        spec, log, plan, cfg, bijections = scenario
        host_map, model, server = _build(scenario)
        trainer = PipelinedPSTrainer(
            model, server, host_map, lr=LR,
            prefetch_depth=3, grad_queue_depth=2, use_cache=True,
        )
        result = trainer.train(_Remapped(log, bijections), 12)
        assert len(result.losses) == 12
        assert np.isfinite(result.losses).all()
        assert result.cache_hits + result.cache_misses > 0

    def test_pipeline_equals_sequential_in_full_scenario(self, scenario):
        spec, log, plan, cfg, bijections = scenario
        map_a, model_a, server_a = _build(scenario)
        map_b, model_b, server_b = _build(scenario)
        remapped = _Remapped(log, bijections)
        seq = SequentialPSTrainer(
            model_a, server_a, map_a, lr=LR
        ).train(remapped, 10)
        pipe = PipelinedPSTrainer(
            model_b, server_b, map_b, lr=LR,
            prefetch_depth=4, grad_queue_depth=2, use_cache=True,
        ).train(remapped, 10)
        np.testing.assert_array_equal(seq.losses, pipe.losses)
        for a, b in zip(server_a.tables, server_b.tables):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_worker_and_server_resume(self, scenario):
        spec, log, plan, cfg, bijections = scenario
        host_map, model, server = _build(scenario)
        remapped = _Remapped(log, bijections)
        trainer = SequentialPSTrainer(model, server, host_map, lr=LR)
        trainer.train(remapped, 5)

        # Snapshot worker and server together (the server's tables
        # arrive through its state_arrays()).
        snapshot = capture_trainer_arrays(trainer)

        # Training continues cleanly after the snapshot, and the
        # snapshot is a true point-in-time copy: it keeps the
        # pre-continuation values while the live server moves on.
        cont = trainer.train(remapped, 2, start=5)
        assert np.isfinite(cont.losses).all()
        assert not np.array_equal(
            snapshot["server/table0/shard0"], server.tables[0]
        )

        # A fresh trainer restored from the snapshot continues bitwise.
        host_map_b, model_b, server_b = _build(scenario)
        resumed = SequentialPSTrainer(model_b, server_b, host_map_b, lr=LR)
        restore_trainer_arrays(resumed, snapshot)
        again = resumed.train(remapped, 2, start=5)
        np.testing.assert_array_equal(cont.losses, again.losses)
        for a, b in zip(server.tables, server_b.tables):
            np.testing.assert_array_equal(a, b)
