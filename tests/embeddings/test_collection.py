"""Plan -> bags: ``build_bags`` materializes a :class:`ModelPlan` into
the bag list a DLRM consumes, and the seams the deleted
``EmbeddingCollection`` used to re-check stay checked where they live
(the PS trainers' host map, ``Batch.remap``)."""

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.planner import (
    build_bags,
    plan_hbm_pack,
    plan_under_budget,
)
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, table_seeds
from repro.reorder.bijection import IndexBijection
from repro.reorder.stats import analytic_table_stats
from repro.system.parameter_server import (
    HostBackedEmbeddingBag,
    HostParameterServer,
)
from repro.system.pipeline import SequentialPSTrainer

# Sized so the scale-2e-5 Criteo tables split across all three
# placements: one TT table, most small tables dense, a few on the host.
TINY_HBM = 8_000


@pytest.fixture(scope="module")
def spec():
    return criteo_kaggle_like(scale=2e-5)


@pytest.fixture(scope="module")
def plan(spec):
    return plan_hbm_pack(
        analytic_table_stats([t.num_rows for t in spec.tables]), 8,
        TINY_HBM, tt_rank=8, tt_threshold_rows=100,
    )


def dlrm_config(spec, backend=EmbeddingBackend.EFF_TT):
    return DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=backend, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )


class TestFromPlacement:
    def test_mixed_placement(self, spec, plan):
        bags = build_bags(plan, range(len(plan.tables)))
        kinds = [bag.compression_spec().kind for bag in bags]
        assert set(kinds) == {"eff_tt", "dense", "host"}
        assert kinds == [entry.kind for entry in plan.tables]
        # server tables are the HostBackedEmbeddingBag views, in order
        assert plan.server_positions() == [
            pos for pos, bag in enumerate(bags)
            if isinstance(bag, HostBackedEmbeddingBag)
        ]

    def test_decisions_match_bag_types(self, spec, plan):
        bag_types = {
            "eff_tt": EffTTEmbeddingBag,
            "dense": DenseEmbeddingBag,
            "host": HostBackedEmbeddingBag,
        }
        bags = build_bags(plan, range(len(plan.tables)))
        for entry, bag in zip(plan.tables, bags):
            assert type(bag) is bag_types[entry.kind]
            if not entry.on_server:
                # the policy accounts in fp32, the bags train in float64
                assert entry.device_bytes == bag.nbytes_as(np.float32)

    def test_drives_dlrm_and_ps_training(self, spec, plan):
        cfg = dlrm_config(spec)
        model = DLRM(
            cfg, seed=0,
            embedding_bags=build_bags(plan, table_seeds(0, cfg.num_tables)),
        )
        positions = plan.server_positions()
        server = HostParameterServer(
            [cfg.table_rows[p] for p in positions], 8, lr=0.1, seed=1
        )
        trainer = SequentialPSTrainer(
            model, server, {p: i for i, p in enumerate(positions)}, lr=0.1
        )
        log = SyntheticClickLog(spec, batch_size=32, seed=0)
        result = trainer.train(log, 5)
        assert len(result.losses) == 5

    def test_all_dense_plan_reproduces_dlrm(self, spec):
        """One seed convention: a plan that keeps every table dense,
        built with ``table_seeds(seed)``, is ``DLRM(cfg, seed)``."""
        cfg = dlrm_config(spec, backend=EmbeddingBackend.DENSE)
        stats = analytic_table_stats(list(cfg.table_rows))
        dense = plan_under_budget(stats, cfg.embedding_dim, 10**9)
        assert {t.kind for t in dense.tables} == {"dense"}
        reference = DLRM(cfg, seed=5)
        planned = DLRM(
            cfg, seed=5,
            embedding_bags=build_bags(dense, table_seeds(5, cfg.num_tables)),
        )
        for ours, theirs in zip(
            planned.embedding_bags, reference.embedding_bags
        ):
            np.testing.assert_array_equal(ours.weight, theirs.weight)
        for ours, theirs in zip(planned.parameters(), reference.parameters()):
            np.testing.assert_array_equal(ours.data, theirs.data)

    def test_seed_count_checked(self, plan):
        with pytest.raises(ValueError, match="seeds"):
            build_bags(plan, [0])


class TestValidation:
    def test_host_map_type_checked(self, spec):
        cfg = dlrm_config(spec, backend=EmbeddingBackend.DENSE)
        model = DLRM(cfg, seed=0)
        server = HostParameterServer([cfg.table_rows[0]], 8, lr=0.1, seed=1)
        with pytest.raises(TypeError, match="HostBackedEmbeddingBag"):
            SequentialPSTrainer(model, server, {0: 0}, lr=0.1)

    def test_bijection_count_checked(self, spec):
        batch = SyntheticClickLog(spec, batch_size=4, seed=0).batch(0)
        with pytest.raises(ValueError):
            batch.remap([None, None])

    def test_remap(self, spec):
        log = SyntheticClickLog(spec, batch_size=16, seed=0)
        batch = log.batch(0)
        bijections = [None] * len(spec.tables)
        n0 = spec.tables[0].num_rows
        bijections[0] = IndexBijection.from_forward(
            np.arange(n0)[::-1].copy()
        )
        remapped = batch.remap(bijections)
        np.testing.assert_array_equal(
            remapped.sparse_indices[0], n0 - 1 - batch.sparse_indices[0]
        )
        # tables without a bijection keep their indices
        assert remapped.sparse_indices[1] is batch.sparse_indices[1]

    def test_nbytes_local_excludes_host(self, plan):
        bags = build_bags(plan, range(len(plan.tables)))
        local = sum(bag.nbytes_as(np.float32) for bag in bags)
        assert local == plan.device_bytes  # server views hold no rows
        assert plan.server_bytes == sum(
            t.num_rows * 8 * 4 for t in plan.tables if t.on_server
        )
