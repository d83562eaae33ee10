"""Behavioral tests for the hash / ROBE / PQ compression strategies."""

import numpy as np
import pytest

from repro.embeddings.hash_embedding import (
    HashEmbeddingBag,
    default_hash_buckets,
)
from repro.embeddings.pq_embedding import (
    PQEmbeddingBag,
    default_pq_codes,
    default_pq_subspaces,
)
from repro.embeddings.robe_embedding import (
    RobeEmbeddingBag,
    default_robe_size,
)

ROWS, DIM = 500, 8

FACTORIES = {
    "hash": lambda seed=0: HashEmbeddingBag(ROWS, DIM, seed=seed),
    "robe": lambda seed=0: RobeEmbeddingBag(ROWS, DIM, seed=seed),
    # The default PQ codebook for 500 rows is deliberately tiny (its
    # capacity rule targets row coverage, not regression fidelity);
    # give the fit tests enough codewords to actually converge.
    "pq": lambda seed=0: PQEmbeddingBag(ROWS, DIM, num_codes=64, seed=seed),
}


def sgd_fit(bag, steps=120, lr=0.3, seed=0):
    """Regress pooled lookups onto fixed targets; returns loss curve."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, ROWS, size=64).astype(np.int64)
    off = np.arange(0, 65, 4, dtype=np.int64)
    target = rng.normal(size=(16, DIM))
    losses = []
    for _ in range(steps):
        out = bag.forward(idx, off)
        err = out - target
        losses.append(float((err**2).mean()))
        bag.backward(2.0 * err / err.size)
        bag.step(lr)
    return losses


class TestTraining:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_converges(self, name):
        losses = sgd_fit(FACTORIES[name]())
        assert losses[-1] < 0.15 * losses[0]

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_run_to_run_deterministic(self, name):
        assert sgd_fit(FACTORIES[name]()) == sgd_fit(FACTORIES[name]())

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_seed_changes_init(self, name):
        a = FACTORIES[name](seed=0).reconstruct_rows(np.arange(10))
        b = FACTORIES[name](seed=1).reconstruct_rows(np.arange(10))
        assert not np.array_equal(a, b)


class TestHash:
    def test_aliasing_shares_rows(self):
        bag = HashEmbeddingBag(ROWS, DIM, num_buckets=7, seed=0)
        idx = np.array([3, 3 + 7, 3 + 14], dtype=np.int64)
        rows = bag.reconstruct_rows(idx)
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[1], rows[2])

    def test_default_buckets_clamped(self):
        assert 1 <= default_hash_buckets(ROWS, 0.25) <= ROWS
        assert default_hash_buckets(4, 1.0) == 4

    def test_memory_shrinks(self):
        bag = HashEmbeddingBag(ROWS, DIM, compress_rate=0.25, seed=0)
        assert bag.memory_bytes() < ROWS * DIM * 8

    def test_out_of_range_rejected(self):
        bag = HashEmbeddingBag(ROWS, DIM, seed=0)
        with pytest.raises((ValueError, IndexError)):
            bag.reconstruct_rows(np.array([ROWS]))


class TestRobe:
    def test_hash_params_reproduce_addressing(self):
        # A bag rebuilt with the spec's hash constants (any seed) must
        # address the shared array identically — the checkpoint
        # restore contract.
        a = RobeEmbeddingBag(ROWS, DIM, seed=11)
        params = dict(a.compression_spec().param_dict())
        b = RobeEmbeddingBag(
            ROWS,
            DIM,
            array_size=params["array_size"],
            chunk_size=params["chunk_size"],
            hash_params=params["hash_params"],
            seed=99,
        )
        b.load_state_arrays(
            {k: v.copy() for k, v in a.state_arrays().items()}
        )
        idx = np.arange(ROWS, dtype=np.int64)
        np.testing.assert_array_equal(
            a.reconstruct_rows(idx), b.reconstruct_rows(idx)
        )

    def test_memory_is_array_size(self):
        size = default_robe_size(ROWS, DIM, 0.1)
        bag = RobeEmbeddingBag(ROWS, DIM, array_size=size, seed=0)
        assert bag.memory_bytes() == size * 4  # float32, the default dtype
        assert bag.memory_bytes() < ROWS * DIM * 4


class TestPQ:
    def test_codes_frozen_by_training(self):
        bag = PQEmbeddingBag(ROWS, DIM, seed=0)
        codes = bag.codes.copy()
        sgd_fit(bag, steps=5)
        np.testing.assert_array_equal(bag.codes, codes)

    def test_subspaces_divide_dim(self):
        for dim in (4, 6, 8, 16, 17):
            m = default_pq_subspaces(dim)
            assert dim % m == 0 and m <= 4

    def test_default_codes_capacity(self):
        m = default_pq_subspaces(DIM)
        k = default_pq_codes(ROWS, m)
        assert 2 <= k <= 256
        assert k ** m >= min(ROWS, 2 ** m) or k == 256

    def test_shared_codes_share_rows(self):
        bag = PQEmbeddingBag(ROWS, DIM, num_codes=2, seed=0)
        same = np.flatnonzero(
            (bag.codes == bag.codes[0]).all(axis=1)
        )
        if same.size > 1:
            rows = bag.reconstruct_rows(same[:2])
            np.testing.assert_array_equal(rows[0], rows[1])
