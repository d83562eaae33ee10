"""Tests for the serving-time hot-row cache and TT warm start."""

import numpy as np
import pytest

from repro.backend.numpy_backend import NumpyBackend
from repro.embeddings.base import segment_sum
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup, StaleCacheError
from repro.embeddings.tt_embedding import TTEmbeddingBag
from tests.conftest import record_cold


@pytest.fixture
def bag():
    return EffTTEmbeddingBag(500, 8, tt_rank=8, seed=0)


@pytest.fixture
def tables():
    """Two TT core signatures (TT-Rec beside Eff-TT at rank 8, Eff-TT at
    rank 2) plus a hash and a PQ arm."""
    from repro.embeddings.hash_embedding import HashEmbeddingBag
    from repro.embeddings.pq_embedding import PQEmbeddingBag

    return [
        EffTTEmbeddingBag(500, 8, tt_rank=8, seed=0),
        HashEmbeddingBag(400, 8, seed=1),
        TTEmbeddingBag(300, 8, tt_rank=8, seed=2),
        EffTTEmbeddingBag(600, 8, tt_rank=2, seed=3),
        PQEmbeddingBag(500, 8, seed=4),
    ]


class TestHotRowCachedLookup:
    def test_matches_uncached_lookup(self, bag, rng):
        view = HotRowCachedLookup(bag, hot_rows=np.arange(50))
        idx = rng.integers(0, 500, size=64)
        np.testing.assert_allclose(
            view.lookup_rows(idx), bag.tt.reconstruct_rows(idx), atol=1e-12
        )

    def test_pooling_matches_bag(self, bag, rng):
        view = HotRowCachedLookup(bag, hot_rows=np.arange(100))
        idx = rng.integers(0, 500, size=30)
        off = np.arange(0, 30, 3)
        np.testing.assert_allclose(
            view.forward(idx, off), bag.forward(idx, off), atol=1e-12
        )

    @pytest.mark.parametrize(
        "offsets", [None, np.arange(31), np.arange(30)],
        ids=["none", "boundary_form", "pytorch_form"],
    )
    def test_one_index_per_bag_serves_the_rows_themselves(self, bag, rng, offsets):
        # serving lookups are bags of one: pooling is skipped, bit for bit
        view = HotRowCachedLookup(bag, hot_rows=np.arange(100))
        idx = rng.integers(0, 500, size=30)
        np.testing.assert_array_equal(
            view.forward(idx, offsets), view.lookup_rows(idx)
        )
        np.testing.assert_array_equal(
            view.forward(idx, offsets),
            segment_sum(view.lookup_rows(idx), np.arange(31)),
        )

    def test_hit_miss_accounting(self, bag):
        view = HotRowCachedLookup(bag, hot_rows=np.array([1, 2, 3]))
        rebuilt = record_cold(view)
        ids = np.array([1, 2, 400, 2])
        view.lookup_rows(ids)
        assert view.count_hot(ids) == 3
        assert rebuilt == [400]

    def test_empty_cache_all_misses(self, bag):
        view = HotRowCachedLookup(bag, hot_rows=np.array([], dtype=np.int64))
        rebuilt = record_cold(view)
        out = view.lookup_rows(np.array([0, 499]))
        assert out.shape == (2, 8)
        assert view.count_hot(np.array([0, 499])) == 0
        assert rebuilt == [0, 499]

    def test_all_hot(self, bag):
        view = HotRowCachedLookup(bag, hot_rows=np.arange(500))
        rebuilt = record_cold(view)
        view.lookup_rows(np.array([7, 8]))
        assert view.count_hot(np.array([7, 8])) == 2
        assert rebuilt == []

    def test_stale_lookup_raises_by_default(self, bag, rng):
        view = HotRowCachedLookup(bag, hot_rows=np.arange(500))
        assert not view.is_stale
        bag.forward(np.array([5, 5, 9]))
        bag.backward_and_step(rng.standard_normal((3, 8)), lr=0.5)
        assert view.is_stale
        with pytest.raises(StaleCacheError, match="refresh"):
            view.lookup_rows(np.array([5]))
        fresh = bag.tt.reconstruct_rows(np.array([5]))
        view.refresh()
        assert not view.is_stale
        np.testing.assert_allclose(
            view.lookup_rows(np.array([5])), fresh, atol=1e-12
        )

    def test_version_counts_every_update(self, bag, rng):
        assert bag.version == 0
        for expected in (1, 2):
            bag.forward(np.array([1, 2]))
            bag.backward_and_step(rng.standard_normal((2, 8)), lr=0.1)
            assert bag.version == expected

    def test_works_with_ttrec_bag(self, rng):
        tt = TTEmbeddingBag(200, 8, tt_rank=4, seed=1)
        view = HotRowCachedLookup(tt, hot_rows=np.arange(20))
        idx = rng.integers(0, 200, size=16)
        np.testing.assert_allclose(
            view.lookup_rows(idx), tt.tt.reconstruct_rows(idx), atol=1e-12
        )

    def test_rejects_dense_bag(self):
        dense = DenseEmbeddingBag(10, 4, seed=0)
        with pytest.raises(TypeError):
            HotRowCachedLookup(dense, hot_rows=np.array([0]))

    def test_out_of_range_hot_rows(self, bag):
        with pytest.raises(ValueError):
            HotRowCachedLookup(bag, hot_rows=np.array([500]))

    def test_cache_footprint(self, bag):
        view = HotRowCachedLookup(bag, hot_rows=np.arange(100))
        assert view.num_hot_rows == 100
        assert view.cache_nbytes == 100 * 8 * 4  # float32 rows


def _hot_maps(tables):
    """Subset, empty and all-rows hot sets across the tables."""
    return [
        np.arange(0, bag.num_embeddings, 2 + t) if t % 3 == 0
        else np.array([], dtype=np.int64) if t % 3 == 1
        else np.arange(bag.num_embeddings)
        for t, bag in enumerate(tables)
    ]


class TestManyTables:
    """One lookup over several tables is the one-table lookups, joined."""

    def _ids(self, tables, rng, sizes=(5, 0, 9, 7, 3)):
        return [
            rng.integers(0, bag.num_embeddings, size=n)
            for bag, n in zip(tables, sizes)
        ]

    def test_lookup_is_each_tables_lookup_bitwise(self, tables, rng):
        hot = _hot_maps(tables)
        joined = HotRowCachedLookup(tables, hot)
        ids = self._ids(tables, rng)
        # multi-hot bags, an empty bag, and bags of one
        offsets = [np.array([0, 2, 2, 5]), None, np.arange(10), np.array([0, 7]), None]
        expected = np.concatenate([
            HotRowCachedLookup(bag, rows).forward(idx, off)
            for bag, rows, idx, off in zip(tables, hot, ids, offsets)
        ])
        np.testing.assert_array_equal(joined.lookup(ids, offsets), expected)
        np.testing.assert_array_equal(
            joined.lookup(ids, [None] * 5),
            np.concatenate([bag.reconstruct_rows(idx) for bag, idx in zip(tables, ids)]),
        )

    def test_counts_are_np_isin(self, tables, rng):
        hot = _hot_maps(tables)
        joined = HotRowCachedLookup(tables, hot)
        ids = self._ids(tables, rng)
        assert joined.count_hot(ids) == sum(
            int(np.isin(idx, rows).sum()) for idx, rows in zip(ids, hot)
        )
        # an id past its own table never matches the next table's keys
        assert joined.count_hot([np.array([500]), *ids[1:]]) == joined.count_hot(
            [np.array([], dtype=np.int64), *ids[1:]]
        )

    def test_one_chain_per_core_signature(self, tables):
        joined = HotRowCachedLookup(tables, _hot_maps(tables))
        assert [group.slots for group in joined._groups] == [(0, 2), (1,), (3,), (4,)]
        rebuilt = record_cold(joined)
        joined.lookup([np.array([499]), np.array([3]), np.array([299]),
                       np.array([1]), np.array([]).astype(np.int64)], [None] * 5)
        # 499 is odd, slot 1's hot set is empty, slot 2's is every row
        assert rebuilt == [(0, 499), (1, 3), (3, 1)]

    def test_a_stale_table_raises_before_any_gather(self, tables, rng, monkeypatch):
        joined = HotRowCachedLookup(tables, _hot_maps(tables))
        stale = tables[3]
        stale.forward(np.array([5, 9]))
        stale.backward_and_step(rng.standard_normal((2, 8)), lr=0.5)
        gathered = []
        real = NumpyBackend.gather_rows
        monkeypatch.setattr(
            NumpyBackend, "gather_rows",
            lambda self, table, idx: gathered.append(idx) or real(self, table, idx),
        )
        rebuilt = record_cold(joined)
        with pytest.raises(StaleCacheError, match="table 3"):
            joined.lookup(self._ids(tables, rng), [None] * 5)
        assert gathered == [] and rebuilt == []
        joined.refresh()
        joined.lookup(self._ids(tables, rng), [None] * 5)
        assert gathered

    @pytest.mark.parametrize("bad", [-1, "past", 2.0])
    def test_a_bad_id_raises_its_bags_own_error(self, tables, rng, bad):
        joined = HotRowCachedLookup(tables, _hot_maps(tables))
        ids = self._ids(tables, rng)
        if bad == "past":
            ids[2] = np.array([0, tables[2].num_embeddings])
        elif isinstance(bad, float):
            ids[2] = np.array([bad])
        else:
            ids[2] = np.array([3, bad])
        with pytest.raises((ValueError, TypeError)) as own:
            tables[2].forward(ids[2])
        rebuilt = record_cold(joined)
        with pytest.raises(type(own.value)) as raised:
            joined.lookup(ids, [None] * 5)
        assert str(raised.value) == str(own.value)
        assert rebuilt == []

    def test_tables_must_share_dim_and_dtype(self, tables):
        with pytest.raises(ValueError, match="embedding dim"):
            HotRowCachedLookup(
                [tables[0], EffTTEmbeddingBag(50, 4, tt_rank=2, seed=0)],
                [np.arange(3), np.arange(3)],
            )
        with pytest.raises(ValueError, match="2 bags but 1 hot-row arrays"):
            HotRowCachedLookup(tables[:2], [np.arange(3)])

    def test_single_table_methods_need_one_table(self, tables):
        joined = HotRowCachedLookup(tables[:2], [np.arange(3), np.arange(3)])
        with pytest.raises(ValueError, match="covers 2 tables"):
            joined.forward(np.array([1]))
        with pytest.raises(ValueError, match="covers 2 tables"):
            joined.lookup_rows(np.array([1]))


class TestFromDenseTable:
    def test_full_rank_recovers_table(self, rng):
        table = rng.standard_normal((24, 8))
        bag = EffTTEmbeddingBag.from_dense_table(
            table, tt_rank=64, row_shape=[4, 3, 2], col_shape=[2, 2, 2],
            dtype=np.float64,
        )
        np.testing.assert_allclose(bag.materialize(), table, atol=1e-10)

    def test_padding_handled(self, rng):
        # 23 rows won't factor into [4, 3, 2]; automatic shapes pad.
        table = rng.standard_normal((23, 8))
        bag = EffTTEmbeddingBag.from_dense_table(table, tt_rank=64)
        assert bag.num_embeddings == 23
        recon = bag.materialize()
        assert recon.shape == (23, 8)

    def test_truncation_is_approximation(self, rng):
        table = rng.standard_normal((64, 16))
        low = EffTTEmbeddingBag.from_dense_table(
            table, tt_rank=2, row_shape=[4, 4, 4], col_shape=[4, 2, 2]
        )
        high = EffTTEmbeddingBag.from_dense_table(
            table, tt_rank=32, row_shape=[4, 4, 4], col_shape=[4, 2, 2]
        )
        err_low = np.linalg.norm(low.materialize() - table)
        err_high = np.linalg.norm(high.materialize() - table)
        assert err_high <= err_low + 1e-9

    def test_trainable_after_warm_start(self, rng):
        table = rng.standard_normal((24, 8)) * 0.01
        bag = EffTTEmbeddingBag.from_dense_table(
            table, tt_rank=8, row_shape=[4, 3, 2], col_shape=[2, 2, 2]
        )
        idx = np.array([0, 5, 5])
        out = bag.forward(idx)
        bag.backward_and_step(np.ones_like(out), lr=0.1)
        after = bag.forward(idx)
        assert not np.allclose(out, after)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            EffTTEmbeddingBag.from_dense_table(np.zeros(5))


def _compressed_factories():
    from repro.embeddings.hash_embedding import HashEmbeddingBag
    from repro.embeddings.pq_embedding import PQEmbeddingBag
    from repro.embeddings.robe_embedding import RobeEmbeddingBag

    return {
        "hash": lambda: HashEmbeddingBag(500, 8, seed=0),
        "robe": lambda: RobeEmbeddingBag(500, 8, seed=0),
        "pq": lambda: PQEmbeddingBag(500, 8, seed=0),
    }


@pytest.mark.parametrize("name", sorted(_compressed_factories()))
class TestCacheOverCompressedStrategies:
    """HotRowCachedLookup is generic over CompressedEmbedding."""

    def test_matches_uncached_lookup(self, name, rng):
        bag = _compressed_factories()[name]()
        view = HotRowCachedLookup(bag, hot_rows=np.arange(50))
        idx = rng.integers(0, 500, size=64)
        np.testing.assert_allclose(
            view.lookup_rows(idx), bag.reconstruct_rows(idx), atol=1e-12
        )

    def test_hit_miss_accounting(self, name):
        bag = _compressed_factories()[name]()
        view = HotRowCachedLookup(bag, hot_rows=np.array([1, 2, 3]))
        rebuilt = record_cold(view)
        view.lookup_rows(np.array([1, 2, 400]))
        assert view.count_hot(np.array([1, 2, 400])) == 2
        assert rebuilt == [400]

    def test_stale_detection_and_refresh(self, name, rng):
        bag = _compressed_factories()[name]()
        view = HotRowCachedLookup(bag, hot_rows=np.arange(500))
        assert not view.is_stale
        out = bag.forward(np.array([5, 5, 9]))
        bag.backward(np.ones_like(out))
        bag.step(lr=0.5)
        assert view.is_stale
        with pytest.raises(StaleCacheError):
            view.lookup_rows(np.array([5]))
        view.refresh()
        np.testing.assert_allclose(
            view.lookup_rows(np.array([5])),
            bag.reconstruct_rows(np.array([5])),
            atol=1e-12,
        )
