"""End-to-end sharded training: bitwise equivalence + kill-and-recover."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.resilience.chaos import (
    FAULT_PLANS,
    ChaosHarnessConfig,
    resume_determinism_check,
    run_chaos,
)
from repro.sharding import LinkCompressionConfig, build_sharded_ps_trainer
from repro.system.parameter_server import (
    HostBackedEmbeddingBag,
    HostParameterServer,
)
from repro.system.pipeline import PipelinedPSTrainer

_NUM_BATCHES = 10


@pytest.fixture(scope="module")
def workload():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    rows = list(cfg.table_rows)
    positions = sorted(sorted(range(len(rows)), key=lambda t: -rows[t])[:2])
    return log, cfg, positions


@pytest.fixture(scope="module")
def host_baseline(workload):
    """The single-table ``HostParameterServer`` harness, assembled by
    hand — the reference every sharded build (and with it the chaos and
    hazard harnesses, which are 1-shard builds) must match bitwise."""
    log, cfg, positions = workload
    host_map = {p: i for i, p in enumerate(positions)}
    bags = [
        HostBackedEmbeddingBag(rows, cfg.embedding_dim)
        if t in host_map
        else build_embedding_bag(
            cfg.backend_for_table(t), rows, cfg.embedding_dim, cfg.tt_rank,
            seed=200 + t,
        )
        for t, rows in enumerate(cfg.table_rows)
    ]
    server = HostParameterServer(
        [cfg.table_rows[p] for p in positions], cfg.embedding_dim,
        lr=0.05, seed=3,
    )
    trainer = PipelinedPSTrainer(
        DLRM(cfg, seed=7, embedding_bags=bags), server, host_map, lr=0.05,
        prefetch_depth=3, grad_queue_depth=2, use_cache=True,
    )
    losses = [float(x) for x in trainer.train(log, _NUM_BATCHES).losses]
    return trainer, losses


def _run_sharded(workload, num_shards, compression=None):
    log, cfg, positions = workload
    setup = build_sharded_ps_trainer(
        cfg,
        num_shards=num_shards,
        compression=compression,
        host_positions=positions,
    )
    losses = [float(x) for x in setup.trainer.train(log, _NUM_BATCHES).losses]
    return setup, losses


@pytest.mark.parametrize("num_shards", [1, 2, 8])
def test_sharded_training_bitwise_matches_host_baseline(
    workload, host_baseline, num_shards
):
    """The acceptance criterion: N-shard run == 1-table run, bitwise."""
    baseline_trainer, baseline_losses = host_baseline
    setup, losses = _run_sharded(workload, num_shards)
    assert losses == baseline_losses
    host_state = baseline_trainer.server.state_arrays()
    for t in range(setup.server.num_tables):
        assert np.array_equal(
            np.asarray(setup.server.tables[t]), host_state[f"table{t}"]
        )
    # Exactly-once: one logical update per (table, batch).
    assert setup.server.update_count == baseline_trainer.server.update_count
    assert setup.server.shard_apply_counts.sum() > 0


def test_compressed_training_stays_within_documented_bound(
    workload, host_baseline
):
    _, baseline_losses = host_baseline
    setup, losses = _run_sharded(
        workload, 2,
        compression=LinkCompressionConfig(mode="both", topk_fraction=0.25),
    )
    drift = abs(losses[-1] - baseline_losses[-1]) / abs(baseline_losses[-1])
    assert drift < 5e-2  # the quickcheck gate's bound (DESIGN.md §11)
    # And the links actually got cheaper.
    assert setup.server.link_stats.compression_ratio > 1.0


def test_chaos_kill_and_recover_on_sharded_run(tmp_path):
    """`repro chaos` smoke plan green with the PS tier sharded 2-way."""
    outcome = run_chaos(
        FAULT_PLANS["smoke"], str(tmp_path),
        config=ChaosHarnessConfig(num_shards=2),
    )
    assert outcome.passed, outcome.format()
    assert outcome.recovery is not None and outcome.recovery.restarts > 0


def test_resume_determinism_with_sharded_server(tmp_path):
    assert resume_determinism_check(
        str(tmp_path),
        config=ChaosHarnessConfig(
            num_batches=10, checkpoint_interval=4, num_shards=2
        ),
    )
