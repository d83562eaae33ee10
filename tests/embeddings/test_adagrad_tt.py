"""Tests for fused row-wise Adagrad on the Eff-TT table."""

import numpy as np
import pytest

from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.backend.groups import group_rows


def _bag(**flags):
    return EffTTEmbeddingBag(
        24, 8, tt_rank=4, row_shape=[4, 3, 2], col_shape=[2, 2, 2],
        optimizer="adagrad", seed=0, **flags,
    )


def coalesce(indices, values):
    """The Adagrad path's coalescing: one group per id, its rows summed."""
    groups = group_rows(indices)
    return groups.ids, groups.sum_rows(values)


class TestCoalesceRows:
    def test_sums_duplicates(self):
        uniq, summed = coalesce(
            np.array([2, 0, 2]), np.array([[1.0], [5.0], [3.0]])
        )
        np.testing.assert_array_equal(uniq, [0, 2])
        np.testing.assert_array_equal(summed[:, 0], [5.0, 4.0])

    def test_no_duplicates_sorted(self):
        uniq, summed = coalesce(
            np.array([3, 1]), np.array([[1.0], [2.0]])
        )
        np.testing.assert_array_equal(uniq, [1, 3])
        np.testing.assert_array_equal(summed[:, 0], [2.0, 1.0])

    def test_empty(self):
        uniq, summed = coalesce(
            np.array([], dtype=np.int64), np.zeros((0, 2))
        )
        assert uniq.size == 0 and summed.shape == (0, 2)

    def test_multidim_values_flattened(self):
        # The slice blocks keep their trailing shape; the update reads
        # them flattened, as it reads the accumulator and the core.
        uniq, summed = coalesce(
            np.array([0, 0]), np.ones((2, 2, 3))
        )
        assert summed.shape == (1, 2, 3)
        np.testing.assert_array_equal(
            summed.reshape(uniq.size, -1), 2 * np.ones((1, 6))
        )


class TestFusedAdagrad:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EffTTEmbeddingBag(24, 8, tt_rank=4, optimizer="adam")
        with pytest.raises(ValueError):
            EffTTEmbeddingBag(24, 8, tt_rank=4, optimizer="adagrad",
                              adagrad_eps=0.0)

    def test_first_step_magnitude(self, rng):
        """First Adagrad step moves each touched element by ~lr."""
        bag = _bag()
        idx = np.array([3])
        before = [c.copy() for c in bag.tt.cores]
        bag.forward(idx)
        bag.backward(rng.standard_normal((1, 8)))
        bag.step(lr=0.1)
        moved = max(
            np.abs(a - b).max() for a, b in zip(before, bag.tt.cores)
        )
        assert moved == pytest.approx(0.1, rel=0.01)

    def test_accumulator_slows_updates(self, rng):
        bag = _bag()
        idx = np.array([3])
        g = np.ones((1, 8))
        deltas = []
        for _ in range(3):
            before = bag.tt.cores[0].copy()
            bag.forward(idx)
            bag.backward(g)
            bag.step(lr=0.1)
            deltas.append(np.abs(bag.tt.cores[0] - before).max())
        assert deltas[0] > deltas[1] > deltas[2]

    def test_fused_matches_dense_mode(self, rng):
        """Fused Adagrad scatter equals the materialized-gradient path."""
        fused = _bag(enable_fused_update=True)
        dense = _bag(enable_fused_update=False)
        for _ in range(4):
            idx = rng.integers(0, 24, size=20)
            g = rng.standard_normal((20, 8))
            for bag in (fused, dense):
                bag.forward(idx)
                bag.backward(g)
                bag.step(0.1)
        for a, b in zip(fused.tt.cores, dense.tt.cores):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_duplicate_indices_coalesced_not_double_counted(self, rng):
        """Duplicates coalesce (sum-then-square) as in sparse Adagrad."""
        a = _bag()
        b = _bag()
        g = rng.standard_normal((1, 8))
        # bag a: one bag containing the same row twice (grads sum)
        a.forward(np.array([5, 5]), np.array([0, 2]))
        a.backward(g)
        a.step(0.1)
        # bag b: one bag with the row once but twice the gradient
        b.forward(np.array([5]), np.array([0, 1]))
        b.backward(2 * g)
        b.step(0.1)
        for ca, cb in zip(a.tt.cores, b.tt.cores):
            np.testing.assert_allclose(ca, cb, atol=1e-12)

    def test_data_parallel_rescale_rejected(self, rng):
        bag = _bag()
        bag.forward(np.array([1]))
        bag.backward(rng.standard_normal((1, 8)))
        pending = bag.pop_pending_update()
        with pytest.raises(ValueError, match="sgd"):
            bag.apply_pending_update(pending, lr=0.1, scale=0.5)

    def test_training_converges(self, rng):
        """Adagrad-trained Eff-TT fits a small regression target."""
        bag = _bag()
        idx = np.arange(24)
        target = rng.standard_normal((24, 8)) * 0.1
        losses = []
        for _ in range(150):
            out = bag.forward(idx)
            diff = out - target
            losses.append(float((diff**2).mean()))
            bag.backward(2 * diff / diff.size)
            bag.step(lr=0.5)
        assert losses[-1] < 0.2 * losses[0]

    def test_sgd_default_unchanged(self):
        bag = EffTTEmbeddingBag(24, 8, tt_rank=4, seed=0)
        assert bag.optimizer == "sgd"
        assert bag._adagrad_acc is None
