"""Tests for pipelined PS training and the timing recurrence.

The headline test proves the paper's §V-B claim: pipelined training
with the LC-managed embedding cache is *bit-identical* to sequential
training, while naive prefetching (cache off) trains on stale rows.
"""

import numpy as np
import pytest

from repro.analysis.hazards import HazardProbe
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import (
    PipelinedPSTrainer,
    SequentialPSTrainer,
    pipeline_schedule,
)

LR = 0.05


@pytest.fixture(scope="module")
def setup():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    rows = list(cfg.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    host_map = {p: i for i, p in enumerate(host_positions)}
    server_rows = [rows[p] for p in host_positions]
    return log, cfg, host_map, server_rows


def _build_model(cfg, host_map):
    bags = []
    for t, rows in enumerate(cfg.table_rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(rows, cfg.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    cfg.backend_for_table(t), rows, cfg.embedding_dim,
                    cfg.tt_rank, seed=(200 + t),
                )
            )
    return DLRM(cfg, seed=7, embedding_bags=bags)


def _run(setup, trainer_cls, num_batches=16, **kwargs):
    log, cfg, host_map, server_rows = setup
    model = _build_model(cfg, host_map)
    server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR, seed=3)
    trainer = trainer_cls(model, server, host_map, lr=LR, **kwargs)
    result = trainer.train(log, num_batches)
    return model, server, result


class TestFunctionalEquivalence:
    def test_pipeline_with_cache_bitwise_equals_sequential(self, setup):
        _, s_seq, r_seq = _run(setup, SequentialPSTrainer)
        _, s_pipe, r_pipe = _run(
            setup, PipelinedPSTrainer, prefetch_depth=3, grad_queue_depth=2,
            use_cache=True,
        )
        for a, b in zip(s_seq.tables, s_pipe.tables):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r_seq.losses, r_pipe.losses)

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_equivalence_across_queue_depths(self, setup, depth):
        _, s_seq, _ = _run(setup, SequentialPSTrainer)
        _, s_pipe, _ = _run(
            setup, PipelinedPSTrainer, prefetch_depth=depth,
            grad_queue_depth=depth, use_cache=True,
        )
        for a, b in zip(s_seq.tables, s_pipe.tables):
            np.testing.assert_array_equal(a, b)

    def test_no_cache_consumes_stale_rows(self, setup):
        _, s_seq, r_stale = _run(
            setup, PipelinedPSTrainer, prefetch_depth=3, grad_queue_depth=2,
            use_cache=False,
        )
        assert r_stale.stale_rows_consumed > 0
        _, s_seq2, _ = _run(setup, SequentialPSTrainer)
        identical = all(
            np.array_equal(a, b) for a, b in zip(s_seq2.tables, s_seq.tables)
        )
        assert not identical  # stale run differs from the clean run

    def test_cache_hits_recorded(self, setup):
        _, _, result = _run(
            setup, PipelinedPSTrainer, prefetch_depth=3, grad_queue_depth=2,
            use_cache=True,
        )
        assert result.cache_hits > 0
        assert result.cache_misses > 0

    def test_losses_recorded(self, setup):
        _, _, result = _run(setup, SequentialPSTrainer, num_batches=5)
        assert len(result.losses) == 5
        assert result.final_loss == result.losses[-1]

    def test_model_validation(self, setup):
        log, cfg, host_map, server_rows = setup
        model = DLRM(cfg, seed=0)  # no host-backed bags
        server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR)
        with pytest.raises(TypeError):
            SequentialPSTrainer(model, server, host_map, lr=LR)

    def test_invalid_depths(self, setup):
        log, cfg, host_map, server_rows = setup
        model = _build_model(cfg, host_map)
        server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR)
        with pytest.raises(ValueError):
            PipelinedPSTrainer(model, server, host_map, lr=LR, prefetch_depth=0)

    @pytest.mark.parametrize("trainer_cls", [SequentialPSTrainer, PipelinedPSTrainer])
    @pytest.mark.parametrize(
        "num_batches, start, name", [(-1, 0, "num_batches"), (2, -1, "start")]
    )
    def test_negative_span_rejected(self, setup, trainer_cls, num_batches, start, name):
        log, cfg, host_map, server_rows = setup
        model = _build_model(cfg, host_map)
        server = ShardedParameterServer(server_rows, cfg.embedding_dim, lr=LR)
        trainer = trainer_cls(model, server, host_map, lr=LR)
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            trainer.train(log, num_batches, start=start)
        assert trainer.train(log, 0).losses == []  # an empty span is fine


class _CountingLog:
    """A click log that counts how often a batch is generated."""

    def __init__(self, log):
        self._log = log
        self.calls = []

    def batch(self, batch_id):
        self.calls.append(batch_id)
        return self._log.batch(batch_id)


class TestOneBatchPerStep:
    """The batch built for the gather travels with the gathered rows."""

    @pytest.mark.parametrize("traced", [False, True], ids=["bare", "probe"])
    @pytest.mark.parametrize("grad_queue_depth", [1, 2])
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 4])
    def test_each_batch_is_generated_once(
        self, setup, prefetch_depth, grad_queue_depth, traced
    ):
        log, cfg, host_map, server_rows = setup
        steps = 6
        _, _, sequential = _run(setup, SequentialPSTrainer, num_batches=steps)
        counting = _CountingLog(log)
        _, _, pipelined = _run(
            (counting, cfg, host_map, server_rows), PipelinedPSTrainer,
            num_batches=steps, prefetch_depth=prefetch_depth,
            grad_queue_depth=grad_queue_depth, use_cache=True,
            probe=HazardProbe() if traced else None,
        )
        assert sorted(counting.calls) == list(range(steps))
        assert pipelined.losses == sequential.losses  # bitwise


class TestPipelineSchedule:
    def test_single_stage(self):
        res = pipeline_schedule(np.full((5, 1), 2.0))
        assert res.makespan == pytest.approx(10.0)

    def test_perfect_overlap(self):
        # equal stages: makespan -> fill + N * bottleneck
        times = np.full((100, 3), 1.0)
        res = pipeline_schedule(times, queue_capacity=4)
        assert res.makespan == pytest.approx(102.0)
        assert res.steady_state_interval == pytest.approx(1.0, rel=0.01)

    def test_bottleneck_dominates(self):
        times = np.tile([0.1, 5.0, 0.1], (50, 1))
        res = pipeline_schedule(times, queue_capacity=4)
        assert res.makespan == pytest.approx(50 * 5.0 + 0.2, rel=0.01)

    def test_capacity_one_serializes(self):
        # Blocking-after-service convention: a 1-slot buffer holds the
        # item during downstream service, so depth-1 degenerates to
        # sequential execution — the paper's "EL-Rec (Sequential)".
        times = np.full((10, 2), 1.0)
        res = pipeline_schedule(times, queue_capacity=1)
        assert res.makespan == pytest.approx(times.sum())
        overlapped = pipeline_schedule(times, queue_capacity=2)
        assert overlapped.makespan < res.makespan

    def test_sequential_upper_bound(self):
        rng = np.random.default_rng(0)
        times = rng.random((20, 3))
        res = pipeline_schedule(times, queue_capacity=8)
        assert res.makespan <= times.sum() + 1e-9
        assert res.makespan >= times.sum(axis=0).max() - 1e-9

    def test_larger_queues_never_slower(self):
        rng = np.random.default_rng(1)
        times = rng.random((30, 3))
        prev = np.inf
        for cap in (1, 2, 4, 8):
            makespan = pipeline_schedule(times, queue_capacity=cap).makespan
            assert makespan <= prev + 1e-9
            prev = makespan

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_schedule(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            pipeline_schedule(np.full((2, 2), -1.0))
        with pytest.raises(ValueError):
            pipeline_schedule(np.ones((2, 3)), queue_capacity=[1])
        with pytest.raises(ValueError):
            pipeline_schedule(np.ones((2, 3)), queue_capacity=0)

    def test_stage_busy(self):
        times = np.tile([1.0, 2.0], (4, 1))
        res = pipeline_schedule(times)
        np.testing.assert_allclose(res.stage_busy, [4.0, 8.0])
