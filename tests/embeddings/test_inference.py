"""Tests for the serving-time hot-row cache and TT warm start."""

import numpy as np
import pytest

from repro.embeddings.base import segment_sum
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup, StaleCacheError
from repro.embeddings.tt_embedding import TTEmbeddingBag
from tests.conftest import record_cold


@pytest.fixture
def bag():
    return EffTTEmbeddingBag(500, 8, tt_rank=8, seed=0)


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
