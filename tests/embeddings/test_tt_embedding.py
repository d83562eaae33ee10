"""Tests for the TT-Rec-style baseline embedding bag."""

import numpy as np
import pytest

from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.nn.optim import SparseSGD
from tests.conftest import assert_grad_close, numerical_gradient


@pytest.fixture
def small_bag():
    return TTEmbeddingBag(
        24, 8, tt_rank=64, row_shape=[4, 3, 2], col_shape=[2, 2, 2], seed=0
    )


class TestConstruction:
    def test_auto_shapes(self):
        bag = TTEmbeddingBag(1000, 16, tt_rank=8, seed=0)
        assert bag.spec.padded_rows >= 1000
        assert bag.spec.embedding_dim == 16

    def test_explicit_shapes_validated(self):
        with pytest.raises(ValueError):
            TTEmbeddingBag(100, 8, row_shape=[4, 4], col_shape=[2, 4])
        with pytest.raises(ValueError):
            TTEmbeddingBag(100, 8, row_shape=[10, 10], col_shape=[2, 2])

    def test_compression(self):
        bag = TTEmbeddingBag(1_000_000, 64, tt_rank=16, seed=0)
        assert bag.compression_ratio() > 50
        assert bag.nbytes < 1_000_000 * 64 * 8 / 50


class TestForward:
    def test_matches_materialized_table(self, small_bag, rng):
        table = small_bag.materialize()
        idx = rng.integers(0, 24, size=30)
        off = np.arange(0, 30, 3)
        out = small_bag.forward(idx, off)
        dense = DenseEmbeddingBag(24, 8, seed=0)
        dense.weight = table
        np.testing.assert_allclose(out, dense.forward(idx, off), atol=1e-12)

    def test_single_index_rows(self, small_bag):
        idx = np.array([0, 7, 23])
        out = small_bag.forward(idx)
        np.testing.assert_allclose(
            out, small_bag.materialize()[idx], atol=1e-12
        )

    def test_out_of_range(self, small_bag):
        with pytest.raises(ValueError):
            small_bag.forward(np.array([24]))


class TestBackward:
    def test_core_gradients_numerical(self, rng):
        bag = TTEmbeddingBag(
            12, 4, tt_rank=3, row_shape=[3, 2, 2], col_shape=[2, 2, 1], seed=1
        )
        idx = np.array([0, 3, 3, 11])
        off = np.array([0, 2])
        g = rng.standard_normal((2, 4))

        bag.forward(idx, off)
        bag.backward(g)
        analytic = [c.copy() for c in bag._pending]

        for k in range(3):
            core0 = bag.tt.cores[k].copy()

            def scalar(core_val, k=k):
                bag.tt.cores[k] = core_val
                out = bag.forward(idx, off)
                bag._saved = None
                return float((out * g).sum())

            numeric = numerical_gradient(scalar, core0.copy())
            bag.tt.cores[k] = core0
            assert_grad_close(analytic[k], numeric, rtol=1e-4, atol=1e-8)

    def test_update_is_descent_direction(self, rng):
        # Gradient descent on TT cores moves the materialized table
        # along a descent direction of the dense objective:
        # <delta_table, dL/dtable> = -lr * ||J^T g||^2 < 0.
        bag = TTEmbeddingBag(
            24, 8, tt_rank=64, row_shape=[4, 3, 2], col_shape=[2, 2, 2], seed=2
        )
        idx = np.array([1, 5, 5])
        off = np.array([0, 1])
        g = rng.standard_normal((2, 8))
        before = bag.materialize()
        bag.forward(idx, off)
        bag.backward(g)
        bag.step(lr=1e-6)
        delta = bag.materialize() - before
        dense_grad = np.zeros_like(before)
        dense_grad[1] += g[0]
        dense_grad[5] += 2 * g[1]
        assert float((delta * dense_grad).sum()) < 0

    def test_step_before_backward(self, small_bag):
        with pytest.raises(RuntimeError):
            small_bag.step(0.1)

    def test_backward_before_forward(self, small_bag):
        with pytest.raises(RuntimeError):
            small_bag.backward(np.zeros((1, 8)))

    def test_grad_shape_validated(self, small_bag):
        small_bag.forward(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            small_bag.backward(np.zeros((2, 8)))
