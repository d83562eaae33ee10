"""Tests for TT cores, TT-SVD, and reconstruction."""

import numpy as np
import pytest

from repro.embeddings.tt_core import TTCores, TTSpec, clamp_ranks, tt_svd


class TestClampRanks:
    def test_scalar_rank(self):
        assert clamp_ranks([4, 4, 4], [2, 2, 2], 8) == [1, 8, 8, 1]

    def test_clamps_to_unfolding(self):
        ranks = clamp_ranks([4, 4, 4], [2, 2, 2], 1000)
        assert ranks[1] == 8  # min(1000, m1*n1=8, (m2 n2)(m3 n3)=64)
        assert ranks[2] == 8  # min(1000, 64, m3*n3=8)

    def test_explicit_list(self):
        assert clamp_ranks([4, 4], [2, 2], [5]) == [1, 5, 1]

    def test_boundary_list_accepted(self):
        assert clamp_ranks([4, 4], [2, 2], [1, 5, 1]) == [1, 5, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            clamp_ranks([4], [2], 8)  # d < 2
        with pytest.raises(ValueError):
            clamp_ranks([4, 4], [2, 2], [0])
        with pytest.raises(ValueError):
            clamp_ranks([4, 4], [2], 4)


class TestTTSpec:
    def test_basic_properties(self):
        spec = TTSpec.create([10, 10, 10], [4, 4, 4], 16)
        assert spec.padded_rows == 1000
        assert spec.embedding_dim == 64
        assert spec.num_cores == 3
        assert spec.core_shape(0) == (10, 1, 4, 16)
        assert spec.core_shape(1) == (10, 16, 4, 16)
        assert spec.core_shape(2) == (10, 16, 4, 1)

    def test_num_params(self):
        spec = TTSpec.create([10, 10, 10], [4, 4, 4], 16)
        assert spec.num_params == 10 * 4 * 16 + 10 * 16 * 4 * 16 + 10 * 16 * 4

    def test_compression_ratio_large(self):
        spec = TTSpec.create([200, 200, 200], [4, 4, 4], 32)
        assert spec.compression_ratio() > 100

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            TTSpec((4, 4), (2, 2), (1, 5))  # wrong length
        with pytest.raises(ValueError):
            TTSpec((4, 4), (2, 2), (2, 5, 1))  # R_0 != 1


class TestRandomInit:
    def test_target_std(self):
        spec = TTSpec.create([16, 16, 16], [4, 4, 4], 8)
        cores = TTCores.random_init(spec, target_std=0.02, seed=0)
        table = cores.reconstruct()
        assert table.std() == pytest.approx(0.02, rel=0.15)

    def test_deterministic(self):
        spec = TTSpec.create([4, 4], [2, 2], 4)
        a = TTCores.random_init(spec, seed=3)
        b = TTCores.random_init(spec, seed=3)
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_invalid_std(self):
        spec = TTSpec.create([4, 4], [2, 2], 4)
        with pytest.raises(ValueError):
            TTCores.random_init(spec, target_std=0.0)


class TestTTSVD:
    def test_full_rank_exact(self, rng):
        table = rng.standard_normal((24, 8))
        cores = TTCores.from_dense(
            table, [4, 3, 2], [2, 2, 2], rank=64, dtype=np.float64
        )
        np.testing.assert_allclose(cores.reconstruct(), table, atol=1e-10)

    def test_two_cores(self, rng):
        table = rng.standard_normal((12, 4))
        cores = TTCores.from_dense(table, [4, 3], [2, 2], rank=64, dtype=np.float64)
        np.testing.assert_allclose(cores.reconstruct(), table, atol=1e-10)

    def test_truncation_monotone(self, rng):
        table = rng.standard_normal((64, 16))
        errors = []
        for rank in (1, 2, 4, 8, 32):
            cores = TTCores.from_dense(table, [4, 4, 4], [4, 2, 2], rank)
            err = np.linalg.norm(cores.reconstruct() - table)
            errors.append(err)
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_low_rank_table_recovered(self, rng):
        # A rank-1 table in the TT sense: outer product structure.
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        w = rng.standard_normal(8)
        tensor = np.einsum("a,b,c->abc", u, v, w).reshape(8 * 8, 8)
        # interpret as (m1 m2 m3)=(4,4,4)? Use 2-core split instead.
        cores = TTCores.from_dense(tensor, [8, 8], [4, 2], rank=4, dtype=np.float64)
        rec = cores.reconstruct()
        # achieved rank should be small and reconstruction near exact
        np.testing.assert_allclose(rec, tensor, atol=1e-8)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tt_svd(rng.standard_normal((10, 4)), [4, 3], [2, 2], 4)

    def test_achieved_ranks_recorded(self, rng):
        table = rng.standard_normal((24, 8))
        cores, spec = tt_svd(table, [4, 3, 2], [2, 2, 2], 1000)
        assert spec.ranks[1] <= 8
        assert spec.ranks[2] <= 4
        for k, core in enumerate(cores):
            assert core.shape == spec.core_shape(k)


class TestReconstructRows:
    def test_matches_full_reconstruct(self, rng):
        spec = TTSpec.create([4, 3, 2], [2, 2, 2], 4)
        cores = TTCores.random_init(spec, seed=1)
        full = cores.reconstruct()
        idx = np.array([0, 5, 11, 23, 5])
        np.testing.assert_allclose(cores.reconstruct_rows(idx), full[idx])

    def test_copy_independent(self):
        spec = TTSpec.create([4, 3], [2, 2], 2)
        a = TTCores.random_init(spec, seed=0)
        b = a.copy()
        b.cores[0][:] = 0
        assert not np.allclose(a.cores[0], 0)

    def test_flat_core_layout(self):
        spec = TTSpec.create([4, 3, 2], [2, 2, 2], 4)
        cores = TTCores.random_init(spec, seed=0)
        flat = cores.flat_core(1)
        assert flat.shape == (4, 3 * 2, spec.ranks[2])
        # element correspondence: flat[r, i*n + j, s] == core[i, r, j, s]
        assert flat[1, 2 * 2 + 1, 3] == cores.cores[1][2, 1, 1, 3]

    def test_constructor_validates_shapes(self):
        spec = TTSpec.create([4, 3], [2, 2], 2)
        with pytest.raises(ValueError):
            TTCores(spec, [np.zeros((4, 1, 2, 2))])
        with pytest.raises(ValueError):
            TTCores(spec, [np.zeros((4, 1, 2, 2)), np.zeros((3, 2, 2, 2))])
