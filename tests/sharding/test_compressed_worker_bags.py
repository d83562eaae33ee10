"""Sharded PS training with hash/ROBE/PQ worker-resident bags.

The placement policy can keep a table on-device under any compression
strategy (``build_sharded_ps_trainer(compress_strategy=...)``), so the
2-shard trainer must (a) actually build those bags, (b) train
deterministically, and (c) round-trip bitwise through the resilience
capture/restore path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.pq_embedding import PQEmbeddingBag
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.resilience.checkpoint import (
    capture_trainer_arrays,
    restore_trainer_arrays,
)
from repro.sharding import build_sharded_ps_trainer

_NUM_BATCHES = 4

_BAG_TYPES = {
    "hash": HashEmbeddingBag,
    "robe": RobeEmbeddingBag,
    "pq": PQEmbeddingBag,
}


@pytest.fixture(scope="module")
def workload():
    # Large enough that four tables pass the 4,096 rows the policy
    # starts compressing at.
    spec = criteo_kaggle_like(scale=1e-3)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    return log, cfg


def _build(workload, strategy_name):
    log, cfg = workload
    # Budget sized so the larger tables cannot stay dense (5% of 2 MB
    # < their dense bytes) but the quarter-size compressed form fits
    # (10% of 2 MB), making the strategy's kind appear in the plan.
    return build_sharded_ps_trainer(
        cfg,
        num_shards=2,
        compress_strategy=strategy_name,
        device_budget_bytes=2_000_000,
    )


@pytest.mark.parametrize("strategy_name", sorted(_BAG_TYPES))
class TestCompressedWorkerBags:
    def test_plan_places_compressed_kind(self, workload, strategy_name):
        setup = _build(workload, strategy_name)
        placed = [
            entry for entry in setup.plan.tables
            if entry.kind == strategy_name
        ]
        assert placed, f"budget never produced a {strategy_name} table"
        for entry in placed:
            bag = setup.model.embedding_bags[entry.table_idx]
            assert type(bag) is _BAG_TYPES[strategy_name]
            assert bag.memory_bytes() == entry.device_bytes

    def test_training_is_deterministic(self, workload, strategy_name):
        log, _ = workload
        a = _build(workload, strategy_name)
        b = _build(workload, strategy_name)
        la = [float(x) for x in a.trainer.train(log, _NUM_BATCHES).losses]
        lb = [float(x) for x in b.trainer.train(log, _NUM_BATCHES).losses]
        assert la == lb

    def test_capture_restore_roundtrip_bitwise(self, workload, strategy_name):
        log, _ = workload
        trained = _build(workload, strategy_name)
        trained.trainer.train(log, _NUM_BATCHES)
        arrays = capture_trainer_arrays(trained.trainer)

        fresh = _build(workload, strategy_name)
        restore_trainer_arrays(fresh.trainer, arrays)
        recaptured = capture_trainer_arrays(fresh.trainer)
        assert sorted(recaptured) == sorted(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, recaptured[name])

    def test_restored_trainer_continues_identically(
        self, workload, strategy_name
    ):
        log, _ = workload
        reference = _build(workload, strategy_name)
        losses = [
            float(x)
            for x in reference.trainer.train(log, 2 * _NUM_BATCHES).losses
        ]

        half = _build(workload, strategy_name)
        half.trainer.train(log, _NUM_BATCHES)
        arrays = capture_trainer_arrays(half.trainer)
        resumed = _build(workload, strategy_name)
        restore_trainer_arrays(resumed.trainer, arrays)
        tail = [
            float(x)
            for x in resumed.trainer.train(
                log, _NUM_BATCHES, start=_NUM_BATCHES
            ).losses
        ]
        assert tail == losses[_NUM_BATCHES:]
