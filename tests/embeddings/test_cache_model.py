"""Model-based test: the array-indexed LC cache against the dict it replaced.

``DictCache`` is the previous ``EmbeddingCache`` — an ``index -> slot``
dict walked one row at a time — kept here as the oracle.  Hypothesis
drives both through the same ``put`` / ``synchronize`` / ``decrement`` /
``clear`` sequences and every observable must agree after every step.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.embeddings.cache import EmbeddingCache

DIM = 3
LIFECYCLE = 2  # short, so sequences evict and re-insert
# Ids the sequences draw from: a small dense range (collisions, repeats)
# and two ids no dense row -> slot map could hold.
HUGE = (1 << 40, (1 << 62) + 5)
PROBE = np.array([*range(100), *HUGE], dtype=np.int64)


class DictCache:
    """The dict-and-free-list cache, one Python step per row."""

    def __init__(self, embedding_dim, default_lifecycle):
        self.embedding_dim = embedding_dim
        self.default_lifecycle = default_lifecycle
        self._slots = {}
        self._buffer = np.zeros((64, embedding_dim))
        self._lifecycle = np.zeros(64, dtype=np.int64)
        self._free = list(range(63, -1, -1))

    def _allocate(self):
        if not self._free:
            old = self._buffer.shape[0]
            self._buffer = np.vstack([self._buffer, np.zeros_like(self._buffer)])
            self._lifecycle = np.concatenate(
                [self._lifecycle, np.zeros(old, dtype=np.int64)]
            )
            self._free.extend(range(2 * old - 1, old - 1, -1))
        return self._free.pop()

    def put(self, indices, values):
        for pos, index in enumerate(indices.tolist()):
            slot = self._slots.get(index)
            if slot is None:
                slot = self._slots[index] = self._allocate()
            self._buffer[slot] = values[pos]
            self._lifecycle[slot] = self.default_lifecycle

    def synchronize(self, indices, values):
        fresh = values.copy()
        slots = np.array(
            [self._slots.get(index, -1) for index in indices.tolist()],
            dtype=np.int64,
        )
        hit_mask = slots >= 0
        fresh[hit_mask] = self._buffer[slots[hit_mask]]
        return fresh, hit_mask

    def decrement(self, indices):
        kept, evicted = [], []
        for index in np.unique(indices).tolist():
            slot = self._slots.get(index)
            if slot is None:
                continue
            self._lifecycle[slot] -= 1
            if self._lifecycle[slot] <= 0:
                del self._slots[index]
                self._free.append(slot)
                evicted.append(index)
            else:
                kept.append(index)
        return kept, evicted

    def get(self, index):
        slot = self._slots.get(index)
        return None if slot is None else self._buffer[slot].copy()

    def lifecycle_of(self, index):
        slot = self._slots.get(index)
        return None if slot is None else int(self._lifecycle[slot])

    def __contains__(self, index):
        return index in self._slots

    def __len__(self):
        return len(self._slots)

    def clear(self):
        self._slots.clear()
        self._lifecycle.fill(0)
        self._free = list(range(self._buffer.shape[0] - 1, -1, -1))


def assert_same_observables(cache, oracle):
    assert len(cache) == len(oracle)
    stale = np.full((PROBE.size, DIM), -1.0)
    fresh, hits = cache.synchronize(PROBE, stale)
    want_fresh, want_hits = oracle.synchronize(PROBE, stale)
    np.testing.assert_array_equal(hits, want_hits)
    np.testing.assert_array_equal(fresh, want_fresh)
    for index in PROBE.tolist():
        assert (index in cache) == (index in oracle)
        assert cache.lifecycle_of(index) == oracle.lifecycle_of(index)
        got, want = cache.get(index), oracle.get(index)
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)


# Empty calls, repeated ids within a call and ids the cache does not
# hold are all ordinary inputs.
ids = st.lists(
    st.integers(min_value=0, max_value=99) | st.sampled_from(HUGE), max_size=90
)
steps = st.lists(
    st.tuples(st.sampled_from(["put", "sync", "dec", "clear"]), ids),
    min_size=1,
    max_size=12,
)


@given(steps)
# growth past the initial 64 rows in one put, eviction of all of it, and
# re-insertion into the freed slots
@example(
    [
        ("put", list(range(99, -1, -1))),
        ("dec", list(range(100))),
        ("dec", list(range(0, 100, 2))),
        ("put", [7, 8, 8, 7, 1 << 40]),
        ("dec", [7, 7, 50, 51]),
    ]
)
@settings(max_examples=150, deadline=None)
def test_array_cache_matches_the_dict_cache(sequence):
    cache = EmbeddingCache(DIM, LIFECYCLE)
    oracle = DictCache(DIM, LIFECYCLE)
    stamp = 0.0
    for op, id_list in sequence:
        idx = np.array(id_list, dtype=np.int64)
        if op == "put":
            # every occurrence gets its own value: "last one wins" is visible
            values = stamp + np.arange(idx.size * DIM, dtype=np.float64).reshape(-1, DIM)
            stamp += values.size
            cache.put(idx, values)
            oracle.put(idx, values)
        elif op == "sync":
            values = np.full((idx.size, DIM), -2.0)
            got, want = cache.synchronize(idx, values), oracle.synchronize(idx, values)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        elif op == "dec":
            kept, evicted = cache.decrement(idx)
            assert (kept.tolist(), evicted.tolist()) == oracle.decrement(idx)
        else:
            cache.clear()
            oracle.clear()
        assert_same_observables(cache, oracle)


def test_index_footprint_follows_occupancy_not_the_id_range():
    """No dense row -> slot map: a huge id costs what a small one costs."""
    small, huge = EmbeddingCache(DIM, LIFECYCLE), EmbeddingCache(DIM, LIFECYCLE)
    small.put(np.array([1, 2, 3]), np.ones((3, DIM)))
    huge.put(np.array([1, 1 << 40, (1 << 62) + 5]), np.ones((3, DIM)))
    assert small.nbytes == huge.nbytes
    empty = EmbeddingCache(DIM, LIFECYCLE)
    assert small.nbytes == empty.nbytes + 3 * 16  # the two key arrays
