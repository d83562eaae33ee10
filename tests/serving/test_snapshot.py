"""Tests for training→serving snapshots."""

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.dense import DenseEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.models.serialization import load_checkpoint
from repro.serving.snapshot import ModelSnapshot
from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import PipelinedPSTrainer

LR = 0.05
SPEC = criteo_kaggle_like(scale=2e-5)
CFG = DLRMConfig.from_dataset(
    SPEC, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
    tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
)


def _ps_setup():
    rows = list(CFG.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    host_map = {p: i for i, p in enumerate(host_positions)}
    bags = []
    for t, num_rows in enumerate(rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(num_rows, CFG.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    CFG.backend_for_table(t), num_rows, CFG.embedding_dim,
                    CFG.tt_rank, seed=(200 + t),
                )
            )
    model = DLRM(CFG, seed=7, embedding_bags=bags)
    server = ShardedParameterServer(
        [rows[p] for p in host_positions], CFG.embedding_dim, lr=LR, seed=3
    )
    return model, server, host_map


class TestFromModel:
    def test_materialize_is_bit_identical(self):
        log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
        model = DLRM(CFG, seed=0)
        snapshot = ModelSnapshot.from_model(model, version=4)
        restored = snapshot.materialize()
        batch = log.batch(0)
        np.testing.assert_array_equal(
            restored.predict_proba(batch), model.predict_proba(batch)
        )
        assert snapshot.version == 4

    def test_materialize_is_independent(self):
        log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
        model = DLRM(CFG, seed=0)
        snapshot = ModelSnapshot.from_model(model)
        before = snapshot.materialize().predict_proba(log.batch(0))
        # training the source model must not affect later materializations
        model.train_step(log.batch(1), lr=0.5)
        after = snapshot.materialize().predict_proba(log.batch(0))
        np.testing.assert_array_equal(before, after)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            ModelSnapshot(b"")


class TestFromTrainer:
    def test_host_tables_materialized_dense(self):
        model, server, host_map = _ps_setup()
        log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
        trainer = PipelinedPSTrainer(
            model, server, host_map, lr=LR, prefetch_depth=2,
            grad_queue_depth=1,
        )
        trainer.train(log, 4)
        snapshot = ModelSnapshot.from_trainer(trainer, version=1)
        restored = snapshot.materialize()
        for pos, server_idx in host_map.items():
            bag = restored.embedding_bags[pos]
            assert isinstance(bag, DenseEmbeddingBag)
            np.testing.assert_array_equal(
                bag.weight, server.tables[server_idx]
            )

    def test_snapshot_matches_trainer_predictions(self):
        model, server, host_map = _ps_setup()
        log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
        trainer = PipelinedPSTrainer(model, server, host_map, lr=LR)
        trainer.train(log, 4)
        # score a batch with the PS model (host rows loaded synchronously)
        batch = log.batch(7)
        for pos, server_idx in host_map.items():
            prefetched = server.gather(server_idx, batch.sparse_indices[pos])
            model.embedding_bags[pos].load_rows(
                prefetched.unique_indices, prefetched.rows
            )
        expected = model.predict_proba(batch)
        restored = ModelSnapshot.from_trainer(trainer).materialize()
        np.testing.assert_array_equal(restored.predict_proba(batch), expected)

    def test_snapshot_frozen_while_training_continues(self):
        model, server, host_map = _ps_setup()
        log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
        trainer = PipelinedPSTrainer(model, server, host_map, lr=LR)
        trainer.train(log, 2)
        snapshot = ModelSnapshot.from_trainer(trainer)
        first = snapshot.materialize()
        trainer.train(log, 4, start=2)  # keep training past the snapshot
        second = snapshot.materialize()
        batch = log.batch(9)
        np.testing.assert_array_equal(
            first.predict_proba(batch), second.predict_proba(batch)
        )


class TestPersistence:
    def test_file_round_trip_and_checkpoint_compat(self, tmp_path):
        model = DLRM(CFG, seed=0)
        snapshot = ModelSnapshot.from_model(model, version=2)
        path = tmp_path / "snap.npz"
        snapshot.save(str(path))
        loaded = ModelSnapshot.load(str(path), version=2)
        assert loaded.nbytes == snapshot.nbytes
        # the file doubles as a standard checkpoint
        log = SyntheticClickLog(SPEC, batch_size=16, seed=0)
        np.testing.assert_array_equal(
            load_checkpoint(str(path)).predict_proba(log.batch(0)),
            model.predict_proba(log.batch(0)),
        )
