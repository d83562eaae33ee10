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


class TestGroupedLookup:
    """The gather's row groups carried into the bag's lookup and backward."""

    @staticmethod
    def _batch(seed, size=300, rows=20):
        return np.random.default_rng(seed).integers(0, rows, size=size)

    def _grads(self, server, ids, grouped, dtype=np.float32):
        bag = HostBackedEmbeddingBag(20, 4, dtype=dtype)
        prefetched = server.gather(0, ids)
        groups = prefetched.groups if grouped else None
        bag.load_rows(prefetched.unique_indices, prefetched.rows, groups)
        bag.forward(ids)
        grad = np.random.default_rng(1).standard_normal((ids.size, 4))
        bag.backward(grad)
        return bag.pop_row_gradients(), grad.astype(dtype)

    def test_gather_carries_the_groups_of_its_ids(self, server):
        ids = self._batch(0)
        prefetched = server.gather(0, ids)
        assert prefetched.groups.ids is prefetched.unique_indices
        assert np.array_equal(
            prefetched.groups.ids[prefetched.groups.inverse()], ids
        )

    def test_two_argument_and_grouped_paths_are_bit_identical(self, server):
        ids = self._batch(2)
        (u_two, g_two), _ = self._grads(server, ids, grouped=False)
        (u_grp, g_grp), _ = self._grads(server, ids, grouped=True)
        assert np.array_equal(u_two, u_grp)
        assert g_two.tobytes() == g_grp.tobytes()

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_within_rounding_of_zeros_plus_scatter_add(self, dtype, rtol):
        from repro.backend.groups import scatter_add_rows

        server = ShardedParameterServer([20], embedding_dim=4, lr=0.1, dtype=dtype)
        ids = self._batch(3)
        (uidx, grads), occurrence = self._grads(server, ids, True, dtype)
        expected = np.zeros((uidx.size, 4), dtype=dtype)
        scatter_add_rows(expected, np.searchsorted(uidx, ids), occurrence)
        magnitudes = np.zeros((uidx.size, 4), dtype=np.float64)
        np.add.at(magnitudes, np.searchsorted(uidx, ids), np.abs(occurrence))
        assert grads.dtype == dtype
        assert np.all(np.abs(grads - expected) <= rtol * magnitudes)

    def test_groups_of_another_batch_raise(self, server):
        ids, other = self._batch(4), self._batch(5)
        bag = HostBackedEmbeddingBag(20, 4)
        # Same distinct ids, other occurrences: only the lookup can tell.
        prefetched = server.gather(0, other)
        assert np.array_equal(prefetched.unique_indices, np.unique(ids))
        bag.load_rows(prefetched.unique_indices, prefetched.rows, prefetched.groups)
        with pytest.raises(ValueError, match="another batch"):
            bag.forward(ids)
        with pytest.raises(ValueError, match="another batch"):
            bag.forward(other[:-1])

    def test_groups_must_name_the_loaded_ids(self, server):
        bag = HostBackedEmbeddingBag(20, 4)
        prefetched = server.gather(0, np.array([1, 4, 4]))
        wrong = server.gather(0, np.array([2, 4]))
        with pytest.raises(ValueError, match="groups"):
            bag.load_rows(prefetched.unique_indices, prefetched.rows, wrong.groups)

    def test_reconstruct_ignores_the_batch_groups(self, server):
        bag = HostBackedEmbeddingBag(20, 4)
        prefetched = server.gather(0, np.array([7, 2, 7, 9]))
        bag.load_rows(prefetched.unique_indices, prefetched.rows, prefetched.groups)
        np.testing.assert_array_equal(
            bag.reconstruct_rows(np.array([9, 9, 2])), server.tables[0][[9, 9, 2]]
        )
