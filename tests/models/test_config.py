"""Tests for DLRM configuration."""

import pytest

from repro.data.datasets import avazu_like, criteo_kaggle_like, criteo_tb_like
from repro.embeddings.planner import table_bytes
from repro.models.config import DLRMConfig, EmbeddingBackend, backend_knobs
from repro.models.dlrm import DLRM
from tests.conftest import all_tt_model


class TestDLRMConfig:
    def test_derived_sizes(self):
        cfg = DLRMConfig(
            num_dense=13,
            table_rows=(100, 200),
            embedding_dim=16,
            bottom_mlp=(64, 32),
            top_mlp=(64,),
        )
        assert cfg.bottom_mlp_sizes == (13, 64, 32, 16)
        assert cfg.interaction_dim == 16 + 3 * 2 // 2
        assert cfg.top_mlp_sizes == (cfg.interaction_dim, 64, 1)
        assert cfg.num_tables == 2

    def test_backend_threshold(self):
        cfg = DLRMConfig(
            num_dense=1,
            table_rows=(100, 2_000_000),
            backend=EmbeddingBackend.EFF_TT,
            tt_threshold_rows=1_000_000,
        )
        assert cfg.backend_for_table(0) is EmbeddingBackend.DENSE
        assert cfg.backend_for_table(1) is EmbeddingBackend.EFF_TT

    def test_dense_backend_ignores_threshold(self):
        cfg = DLRMConfig(
            num_dense=1,
            table_rows=(2_000_000,),
            backend=EmbeddingBackend.DENSE,
            tt_threshold_rows=0,
        )
        assert cfg.backend_for_table(0) is EmbeddingBackend.DENSE

    def test_from_dataset(self):
        spec = criteo_kaggle_like(scale=1e-4)
        cfg = DLRMConfig.from_dataset(spec, embedding_dim=8)
        assert cfg.num_dense == 13
        assert cfg.num_tables == 26
        assert cfg.table_rows == tuple(t.num_rows for t in spec.tables)

    def test_validation(self):
        with pytest.raises(ValueError):
            DLRMConfig(num_dense=0, table_rows=(10,))
        with pytest.raises(ValueError):
            DLRMConfig(num_dense=1, table_rows=())
        with pytest.raises(ValueError):
            DLRMConfig(num_dense=1, table_rows=(0,))
        with pytest.raises(ValueError):
            DLRMConfig(num_dense=1, table_rows=(10,), embedding_dim=0)

    def test_backend_enum_values(self):
        assert EmbeddingBackend("dense") is EmbeddingBackend.DENSE
        assert EmbeddingBackend("eff_tt") is EmbeddingBackend.EFF_TT
        assert EmbeddingBackend("tt") is EmbeddingBackend.TT


class TestFootprintRule:
    """A table is compressed only where the compressed form is smaller."""

    def test_boundary_on_the_ledger_config(self):
        # benchmarks/perf: criteo-kaggle-like at scale 2e-3, dim 64, rank 32
        cfg = DLRMConfig.from_dataset(
            criteo_kaggle_like(scale=2e-3), embedding_dim=64,
            backend=EmbeddingBackend.EFF_TT, tt_rank=32,
        )
        kind = {
            rows: cfg.backend_for_table(t).value
            for t, rows in enumerate(cfg.table_rows)
        }
        assert kind[285] == "dense" and kind[572] == "eff_tt"
        # both sides at the default fp32 (4 bytes per element)
        assert table_bytes("eff_tt", 285, 64, tt_rank=32) >= 285 * 64 * 4
        assert table_bytes("eff_tt", 572, 64, tt_rank=32) < 572 * 64 * 4
        assert sorted(kind.values()).count("eff_tt") == 6
        # a rank-clamped 3-row TT table is larger than its three rows
        assert table_bytes("eff_tt", 3, 64, tt_rank=32) == 1344 > 768
        assert kind[3] == "dense"

    def test_equal_footprints_stay_dense(self):
        rows = next(
            r for r in range(1, 400)
            if table_bytes("eff_tt", r, 8, tt_rank=4) == r * 8 * 4
        )
        cfg = DLRMConfig(
            num_dense=1, table_rows=(rows,), embedding_dim=8,
            backend=EmbeddingBackend.EFF_TT, tt_rank=4,
        )
        assert cfg.backend_for_table(0) is EmbeddingBackend.DENSE

    @pytest.mark.parametrize("rank", [4, 16, 64])
    @pytest.mark.parametrize(
        "spec",
        [
            criteo_kaggle_like(scale=1e-3),
            criteo_tb_like(scale=2e-4),
            avazu_like(scale=1e-3),
        ],
        ids=["kaggle", "terabyte", "avazu"],
    )
    def test_never_larger_than_all_dense_or_all_tt(self, spec, rank):
        def model(backend, build=DLRM):
            cfg = DLRMConfig.from_dataset(
                spec, embedding_dim=16, backend=backend, tt_rank=rank,
                bottom_mlp=(8,), top_mlp=(8,),
            )
            return build(cfg, seed=0)

        mixed = model(EmbeddingBackend.EFF_TT)
        all_dense = model(EmbeddingBackend.DENSE)
        all_tt = model(EmbeddingBackend.EFF_TT, all_tt_model)
        kinds = {bag.kind for bag in mixed.embedding_bags}
        assert kinds == {"dense", "eff_tt"}
        assert {bag.kind for bag in all_tt.embedding_bags} == {"eff_tt"}
        assert mixed.embedding_nbytes() <= all_dense.embedding_nbytes()
        assert mixed.embedding_nbytes() < all_tt.embedding_nbytes()
        # per table it is exactly the smaller of the two
        for bag, dense, tt in zip(
            mixed.embedding_bags, all_dense.embedding_bags, all_tt.embedding_bags
        ):
            assert bag.nbytes == min(dense.nbytes, tt.nbytes)

    def test_threshold_still_wins_when_set(self):
        cfg = DLRMConfig(
            num_dense=1, table_rows=(3, 5_000, 50_000), embedding_dim=16,
            backend=EmbeddingBackend.EFF_TT, tt_rank=8,
            tt_threshold_rows=10_000,
        )
        # 5,000 rows would compress, but sits under the threshold
        assert table_bytes("eff_tt", 5_000, 16, tt_rank=8) < 5_000 * 16 * 8
        assert [cfg.backend_for_table(t).value for t in range(3)] == [
            "dense", "dense", "eff_tt",
        ]

    @pytest.mark.parametrize(
        "backend", [EmbeddingBackend.HASH, EmbeddingBackend.ROBE, EmbeddingBackend.PQ]
    )
    def test_every_compressed_kind_goes_through_the_one_comparison(self, backend):
        cfg = DLRMConfig(
            num_dense=1, table_rows=(3, 40, 5_000), embedding_dim=16,
            backend=backend, compress_rate=0.25,
        )
        params = backend_knobs(backend.value, cfg.tt_rank, cfg.compress_rate)
        for t, rows in enumerate(cfg.table_rows):
            smaller = (
                table_bytes(backend.value, rows, 16, **params) < rows * 16 * 8
            )
            expected = backend if smaller else EmbeddingBackend.DENSE
            assert cfg.backend_for_table(t) is expected

    def test_an_explicit_all_tt_plan_still_trains(self):
        from repro.data.dataloader import SyntheticClickLog

        spec = criteo_kaggle_like(scale=3e-5)
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT,
            tt_rank=8, bottom_mlp=(16,), top_mlp=(16,),
        )
        model = all_tt_model(cfg, seed=1)
        assert [bag.kind for bag in model.embedding_bags] == ["eff_tt"] * 26
        assert min(cfg.table_rows) == 3  # 3-row TT tables included
        log = SyntheticClickLog(spec, batch_size=64, seed=2)
        first = log.batch(0)
        before = model.loss_fn.forward(model.forward(first), first.labels)
        for i in range(20):
            model.train_step(log.batch(i), lr=0.1)
        after = model.loss_fn.forward(model.forward(first), first.labels)
        assert after < before
