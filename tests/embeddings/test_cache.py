"""Tests for the LC-managed embedding cache (paper §V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.cache import EmbeddingCache


@pytest.fixture
def cache():
    return EmbeddingCache(embedding_dim=4, default_lifecycle=3)


class TestPutAndGet:
    def test_put_then_get(self, cache):
        cache.put(np.array([5]), np.ones((1, 4)))
        np.testing.assert_array_equal(cache.get(5), np.ones(4))
        assert 5 in cache
        assert len(cache) == 1

    def test_get_missing(self, cache):
        assert cache.get(99) is None
        assert 99 not in cache

    def test_put_overwrites_and_resets_lc(self, cache):
        cache.put(np.array([1]), np.ones((1, 4)))
        cache.decrement(np.array([1]))
        assert cache.lifecycle_of(1) == 2
        cache.put(np.array([1]), 2 * np.ones((1, 4)))
        assert cache.lifecycle_of(1) == 3
        np.testing.assert_array_equal(cache.get(1), 2 * np.ones(4))

    def test_duplicate_indices_last_wins(self, cache):
        cache.put(np.array([7, 7]), np.array([[1.0] * 4, [2.0] * 4]))
        np.testing.assert_array_equal(cache.get(7), 2 * np.ones(4))
        assert len(cache) == 1

    def test_shape_validation(self, cache):
        with pytest.raises(ValueError):
            cache.put(np.array([1]), np.ones((2, 4)))
        with pytest.raises(ValueError):
            cache.put(np.array([1]), np.ones((1, 3)))


class TestSynchronize:
    def test_hits_replace_values(self, cache):
        cache.put(np.array([2]), np.full((1, 4), 9.0))
        stale = np.zeros((2, 4))
        fresh, mask = cache.synchronize(np.array([1, 2]), stale)
        np.testing.assert_array_equal(fresh[0], np.zeros(4))
        np.testing.assert_array_equal(fresh[1], np.full(4, 9.0))
        np.testing.assert_array_equal(mask, [False, True])

    def test_does_not_mutate_input(self, cache):
        cache.put(np.array([0]), np.ones((1, 4)))
        stale = np.zeros((1, 4))
        cache.synchronize(np.array([0]), stale)
        np.testing.assert_array_equal(stale, np.zeros((1, 4)))

    def test_hit_counters(self, cache):
        # Hits and misses are counted off the returned mask.
        cache.put(np.array([0]), np.ones((1, 4)))
        _, mask = cache.synchronize(np.array([0, 1, 2]), np.zeros((3, 4)))
        np.testing.assert_array_equal(mask, [True, False, False])
        assert (int(mask.sum()), int((~mask).sum())) == (1, 2)


class TestLifecycle:
    def test_eviction_after_lc_decrements(self, cache):
        cache.put(np.array([3]), np.ones((1, 4)))
        for _ in range(2):
            kept, evicted = cache.decrement(np.array([3]))
            assert (kept.tolist(), evicted.tolist()) == ([3], [])
        kept, evicted = cache.decrement(np.array([3]))  # third hit evicts
        assert (kept.tolist(), evicted.tolist()) == ([], [3])
        assert 3 not in cache

    def test_decrement_duplicates_once(self, cache):
        cache.put(np.array([4]), np.ones((1, 4)))
        kept, evicted = cache.decrement(np.array([4, 4, 4]))
        assert (kept.tolist(), evicted.tolist()) == ([4], [])
        assert cache.lifecycle_of(4) == 2

    def test_decrement_missing_noop(self, cache):
        cache.put(np.array([7]), np.ones((1, 4)))
        kept, evicted = cache.decrement(np.array([42]))
        assert kept.size == evicted.size == 0
        assert cache.lifecycle_of(7) == 3

    def test_slot_reuse_after_eviction(self):
        cache = EmbeddingCache(embedding_dim=2, default_lifecycle=1)
        cache.put(np.array([1]), np.ones((1, 2)))
        cache.decrement(np.array([1]))
        assert len(cache) == 0
        cache.put(np.array([2]), 2 * np.ones((1, 2)))
        np.testing.assert_array_equal(cache.get(2), [2.0, 2.0])
        assert cache.get(1) is None


class TestCapacity:
    def test_growth_beyond_initial_capacity(self):
        cache = EmbeddingCache(embedding_dim=2, default_lifecycle=5)
        n = 300  # > initial capacity of 64
        cache.put(np.arange(n), np.arange(2 * n, dtype=float).reshape(n, 2))
        assert len(cache) == n
        np.testing.assert_array_equal(cache.get(299), [598.0, 599.0])

    def test_nbytes_grows(self):
        cache = EmbeddingCache(embedding_dim=2, default_lifecycle=5)
        before = cache.nbytes
        cache.put(np.arange(200), np.zeros((200, 2)))
        assert cache.nbytes > before

    def test_clear(self, cache):
        cache.put(np.array([1, 2]), np.ones((2, 4)))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(1) is None
        cache.put(np.array([9]), np.ones((1, 4)))  # still usable
        assert 9 in cache

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EmbeddingCache(0, 3)
        with pytest.raises(ValueError):
            EmbeddingCache(4, 0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "sync", "dec"]),
            st.lists(
                st.integers(min_value=0, max_value=20), min_size=1, max_size=8
            ),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_cache_holds_latest_put(ops):
    """The cache always returns the most recently put value for an index
    while that index remains cached, under any op interleaving."""
    cache = EmbeddingCache(embedding_dim=2, default_lifecycle=4)
    latest = {}
    counter = 0.0
    for op, idx_list in ops:
        idx = np.array(sorted(set(idx_list)), dtype=np.int64)
        if op == "put":
            counter += 1.0
            values = np.full((idx.size, 2), counter)
            cache.put(idx, values)
            for i in idx.tolist():
                latest[i] = counter
        elif op == "sync":
            fresh, mask = cache.synchronize(idx, np.zeros((idx.size, 2)))
            for pos, i in enumerate(idx.tolist()):
                if mask[pos]:
                    assert fresh[pos, 0] == latest[i]
        else:
            cache.decrement(idx)
    # every cached entry matches the latest put
    for i, value in latest.items():
        cached = cache.get(i)
        if cached is not None:
            assert cached[0] == value
