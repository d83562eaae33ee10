"""Tests for functional data parallelism and collective cost formulas."""

import dataclasses

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.system.devices import TESLA_T4, TESLA_V100
from repro.system.multi_gpu import (
    DataParallelTrainer,
    all2all_time,
    allgather_time,
    ring_allreduce_time,
    shard_batch,
)


@pytest.fixture(scope="module")
def setup():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    return log, cfg


class TestShardBatch:
    def test_shapes(self, setup):
        log, _ = setup
        shards = shard_batch(log.batch(0), 4)
        assert len(shards) == 4
        assert all(s.batch_size == 16 for s in shards)

    def test_concatenation_recovers_batch(self, setup):
        log, _ = setup
        batch = log.batch(0)
        shards = shard_batch(batch, 2)
        np.testing.assert_array_equal(
            np.concatenate([s.dense for s in shards]), batch.dense
        )
        for t in range(batch.num_tables):
            np.testing.assert_array_equal(
                np.concatenate([s.sparse_indices[t] for s in shards]),
                batch.sparse_indices[t],
            )
            # offsets restart at 0 per shard
            assert all(s.sparse_offsets[t][0] == 0 for s in shards)

    def test_indivisible_rejected(self, setup):
        log, _ = setup
        with pytest.raises(ValueError):
            shard_batch(log.batch(0), 7)


class TestDataParallelTrainer:
    def test_replicas_stay_synchronized(self, setup):
        log, cfg = setup
        dp = DataParallelTrainer(cfg, num_replicas=2, seed=4)
        for i in range(4):
            dp.train_step(log.batch(i), lr=0.05)
        assert dp.replicas_synchronized()

    def test_matches_single_worker_training(self, setup):
        log, cfg = setup
        cfg = dataclasses.replace(cfg, dtype=np.float64)  # held at atol 1e-12
        dp = DataParallelTrainer(cfg, num_replicas=4, seed=4)
        single = DLRM(cfg, seed=4)
        for i in range(4):
            dp.train_step(log.batch(i), lr=0.05)
            single.train_step(log.batch(i), lr=0.05)
        for p_dp, p_single in zip(
            dp.replicas[0].parameters(), single.parameters()
        ):
            np.testing.assert_allclose(p_dp.data, p_single.data, atol=1e-12)
        for bag_dp, bag_single in zip(
            dp.replicas[0].embedding_bags, single.embedding_bags
        ):
            # cores of the Eff-TT bags, the weight of the dense ones
            state_dp, state_single = bag_dp.state_arrays(), bag_single.state_arrays()
            assert state_dp.keys() == state_single.keys()
            for name in state_dp:
                np.testing.assert_allclose(
                    state_dp[name], state_single[name], atol=1e-12
                )

    def test_loss_is_global_mean(self, setup):
        log, cfg = setup
        dp = DataParallelTrainer(cfg, num_replicas=2, seed=4)
        single = DLRM(cfg, seed=4)
        batch = log.batch(0)
        loss_dp = dp.train_step(batch, lr=0.05)
        logits = single.forward(batch)
        loss_single = single.loss_fn.forward(logits, batch.labels)
        assert loss_dp == pytest.approx(loss_single, rel=1e-10)

    def test_dense_backend_supported(self, setup):
        log, _ = setup
        spec = criteo_kaggle_like(scale=2e-5)
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.DENSE,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        dp = DataParallelTrainer(cfg, num_replicas=2, seed=0)
        dp.train_step(log.batch(0), lr=0.05)
        assert dp.replicas_synchronized()

    def test_invalid_replicas(self, setup):
        _, cfg = setup
        with pytest.raises(ValueError):
            DataParallelTrainer(cfg, num_replicas=0)


class TestCollectiveFormulas:
    def test_single_device_free(self):
        assert ring_allreduce_time(1e9, 1, TESLA_V100) == 0.0
        assert all2all_time(1e9, 1, TESLA_V100) == 0.0
        assert allgather_time(1e9, 1, TESLA_V100) == 0.0

    def test_allreduce_bandwidth_term(self):
        t = ring_allreduce_time(150e9, 2, TESLA_V100, latency_s=0.0)
        # 2 * (1/2) * 150 GB over 150 GB/s = 1 s
        assert t == pytest.approx(1.0)

    def test_nvlink_faster_than_pcie(self):
        v = ring_allreduce_time(1e9, 4, TESLA_V100)
        t = ring_allreduce_time(1e9, 4, TESLA_T4)
        assert v < t

    def test_allreduce_scales_sublinearly_in_k(self):
        t2 = ring_allreduce_time(1e9, 2, TESLA_V100, latency_s=0.0)
        t8 = ring_allreduce_time(1e9, 8, TESLA_V100, latency_s=0.0)
        assert t8 / t2 == pytest.approx((2 * 7 / 8) / (2 * 1 / 2))

    def test_allgather_grows_with_k(self):
        t2 = allgather_time(1e9, 2, TESLA_V100, latency_s=0.0)
        t4 = allgather_time(1e9, 4, TESLA_V100, latency_s=0.0)
        assert t4 > t2

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1.0, 2, TESLA_V100)
        with pytest.raises(ValueError):
            all2all_time(1.0, 0, TESLA_V100)
