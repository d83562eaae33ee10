"""Tests for the dense embedding bag."""

import numpy as np
import pytest

from repro.embeddings.dense import DenseEmbeddingBag


class TestForward:
    def test_single_index_bags(self, rng):
        bag = DenseEmbeddingBag(10, 4, seed=0)
        idx = np.array([3, 7])
        out = bag.forward(idx)  # offsets default: one index per bag
        np.testing.assert_array_equal(out, bag.weight[idx])

    def test_pooling(self):
        bag = DenseEmbeddingBag(10, 4, seed=0)
        idx = np.array([1, 2, 3])
        out = bag.forward(idx, np.array([0, 2]))
        np.testing.assert_allclose(out[0], bag.weight[1] + bag.weight[2])
        np.testing.assert_allclose(out[1], bag.weight[3])

    def test_out_of_range(self):
        bag = DenseEmbeddingBag(10, 4, seed=0)
        with pytest.raises(ValueError):
            bag.forward(np.array([10]))
        with pytest.raises(ValueError):
            bag.forward(np.array([-1]))

    def test_lookup_rows(self):
        bag = DenseEmbeddingBag(10, 4, seed=0)
        rows = bag.lookup_rows(np.array([0, 9]))
        np.testing.assert_array_equal(rows, bag.weight[[0, 9]])

    def test_init_scale(self):
        bag = DenseEmbeddingBag(10_000, 8, seed=0)
        assert np.abs(bag.weight).max() <= 1.0 / np.sqrt(10_000)


class TestBackwardStep:
    def test_sgd_update(self):
        bag = DenseEmbeddingBag(5, 2, seed=0)
        before = bag.weight.copy()
        idx = np.array([1, 1, 3])
        off = np.array([0, 2])
        bag.forward(idx, off)
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        bag.backward(g)
        bag.step(lr=0.5)
        # row 1 appears twice in bag 0 -> grad 2*g0
        np.testing.assert_allclose(bag.weight[1], before[1] - 0.5 * 2 * g[0])
        np.testing.assert_allclose(bag.weight[3], before[3] - 0.5 * g[1])
        np.testing.assert_allclose(bag.weight[0], before[0])

    def test_backward_before_forward(self):
        bag = DenseEmbeddingBag(5, 2, seed=0)
        with pytest.raises(RuntimeError):
            bag.backward(np.zeros((1, 2)))

    def test_step_before_backward(self):
        bag = DenseEmbeddingBag(5, 2, seed=0)
        with pytest.raises(RuntimeError):
            bag.step(0.1)

    def test_grad_shape_validation(self):
        bag = DenseEmbeddingBag(5, 2, seed=0)
        bag.forward(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            bag.backward(np.zeros((2, 2)))

    def test_pop_row_gradients(self):
        bag = DenseEmbeddingBag(5, 2, seed=0)
        bag.forward(np.array([2, 4]), np.array([0, 1]))
        g = np.ones((2, 2))
        bag.backward(g)
        rows, grads = bag.pop_row_gradients()
        np.testing.assert_array_equal(rows, [2, 4])
        np.testing.assert_array_equal(grads, g)
        with pytest.raises(RuntimeError):
            bag.pop_row_gradients()

    def test_row_gradients_keep_storage_dtype(self):
        # float64 in, float32 bag: gradients land at the bag's dtype
        # like every other strategy (they used to stay float64).
        bag = DenseEmbeddingBag(5, 2, seed=0, dtype=np.float32)
        bag.forward(np.array([2, 4]), np.array([0, 1]))
        bag.backward(np.ones((2, 2), dtype=np.float64))
        _, grads = bag.pop_row_gradients()
        assert grads.dtype == np.float32


class TestFootprint:
    def test_nbytes(self):
        bag = DenseEmbeddingBag(100, 8, seed=0)
        assert bag.nbytes == 100 * 8 * 4  # float32, the default dtype

    def test_nbytes_as_fp32(self):
        bag = DenseEmbeddingBag(100, 8, seed=0)
        assert bag.nbytes_as(np.float32) == 100 * 8 * 4
