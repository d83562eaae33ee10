"""Tests for the host parameter server (one shard) and host-backed bags."""

import numpy as np
import pytest

from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag


@pytest.fixture
def server():
    return ShardedParameterServer([20, 30], embedding_dim=4, lr=0.1, seed=0)


class TestHostParameterServer:
    def test_gather_unique_sorted(self, server):
        out = server.gather(0, np.array([5, 3, 5, 7]))
        np.testing.assert_array_equal(out.unique_indices, [3, 5, 7])
        np.testing.assert_array_equal(out.rows, server.tables[0][[3, 5, 7]])

    def test_gather_returns_copy(self, server):
        out = server.gather(0, np.array([1]))
        out.rows[:] = 99.0
        assert not np.allclose(server.tables[0][1], 99.0)

    def test_apply_gradients(self, server):
        before = server.tables[1].copy()
        grads = np.ones((2, 4))
        server.apply_gradients(1, np.array([2, 9]), grads)
        np.testing.assert_allclose(server.tables[1][2], before[2] - 0.1)
        np.testing.assert_allclose(server.tables[1][9], before[9] - 0.1)

    def test_counters(self, server):
        server.gather(0, np.array([1]))
        server.apply_gradients(0, np.array([1]), np.zeros((1, 4)))
        assert server.gather_count == 1
        assert server.update_count == 1

    def test_out_of_range(self, server):
        with pytest.raises(ValueError):
            server.gather(0, np.array([20]))

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            ShardedParameterServer([10], 4, lr=0.0)

    def test_nbytes(self, server):
        assert server.nbytes() == (20 + 30) * 4 * 4  # float32 tables


class TestHostBackedEmbeddingBag:
    def _loaded_bag(self, server):
        bag = HostBackedEmbeddingBag(20, 4)
        prefetched = server.gather(0, np.array([2, 5, 5, 11]))
        bag.load_rows(prefetched.unique_indices, prefetched.rows)
        return bag

    def test_forward_matches_table(self, server):
        bag = self._loaded_bag(server)
        out = bag.forward(np.array([2, 5, 5, 11]), np.array([0, 2]))
        table = server.tables[0]
        np.testing.assert_allclose(out[0], table[2] + table[5])
        np.testing.assert_allclose(out[1], table[5] + table[11])

    def test_forward_before_load(self):
        bag = HostBackedEmbeddingBag(20, 4)
        with pytest.raises(RuntimeError):
            bag.forward(np.array([0]))

    def test_unloaded_row_rejected(self, server):
        bag = self._loaded_bag(server)
        with pytest.raises(KeyError):
            bag.forward(np.array([3]))

    def test_backward_aggregates_unique(self, server):
        bag = self._loaded_bag(server)
        bag.forward(np.array([2, 5, 5]), np.array([0, 1, 2, 3]))
        g = np.ones((3, 4))
        bag.backward(g)
        uidx, grads = bag.pop_row_gradients()
        np.testing.assert_array_equal(uidx, [2, 5, 11])
        np.testing.assert_allclose(grads[0], np.ones(4))
        np.testing.assert_allclose(grads[1], 2 * np.ones(4))  # 5 twice
        np.testing.assert_allclose(grads[2], np.zeros(4))  # 11 unused

    def test_compute_updated_rows(self, server):
        bag = self._loaded_bag(server)
        bag.forward(np.array([2]), np.array([0]))
        bag.backward(np.ones((1, 4)))
        uidx, updated = bag.compute_updated_rows(lr=0.5)
        np.testing.assert_allclose(
            updated[0], server.tables[0][2] - 0.5
        )

    def test_step_raises(self, server):
        bag = self._loaded_bag(server)
        with pytest.raises(RuntimeError):
            bag.step(0.1)

    def test_load_rows_validation(self):
        bag = HostBackedEmbeddingBag(20, 4)
        with pytest.raises(ValueError):
            bag.load_rows(np.array([5, 3]), np.zeros((2, 4)))  # not sorted
        with pytest.raises(ValueError):
            bag.load_rows(np.array([3]), np.zeros((2, 4)))  # shape mismatch

    def test_nbytes_tracks_loaded(self, server):
        bag = HostBackedEmbeddingBag(20, 4)
        assert bag.nbytes == 0
        prefetched = server.gather(0, np.array([1, 2]))
        bag.load_rows(prefetched.unique_indices, prefetched.rows)
        assert bag.nbytes == 2 * 4 * 4  # two float32 rows
