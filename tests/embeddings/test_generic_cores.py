"""Tests for non-default TT core counts (d = 2 and d = 4).

The paper uses d = 3; the implementation is generic in d.  These tests
pin the generic chain/reuse/backward paths: equality with the dense
math, Eff-TT ≡ TT-Rec, and reuse-plan behaviour at prefix depths 1 and
3.
"""

import itertools

import numpy as np
import pytest

from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.reuse_buffer import build_reuse_plan
from repro.embeddings.tt_embedding import TTEmbeddingBag

CONFIGS = {
    2: dict(row_shape=[6, 4], col_shape=[4, 2]),
    4: dict(row_shape=[3, 2, 2, 2], col_shape=[2, 2, 2, 2]),
}


@pytest.mark.parametrize("d", [2, 4])
class TestGenericCoreCount:
    def _pair(self, d, seed=0, **flags):
        shapes = CONFIGS[d]
        rows = int(np.prod(shapes["row_shape"]))
        dim = int(np.prod(shapes["col_shape"]))
        # float64: the pair is held equal at atol 1e-10
        tt = TTEmbeddingBag(
            rows, dim, tt_rank=4, num_cores=d, seed=seed, dtype=np.float64,
            **shapes,
        )
        eff = EffTTEmbeddingBag(
            rows, dim, tt_rank=4, num_cores=d, seed=seed, dtype=np.float64,
            **shapes, **flags,
        )
        return rows, dim, tt, eff

    def test_forward_matches_materialized(self, d, rng):
        rows, dim, tt, eff = self._pair(d)
        idx = rng.integers(0, rows, size=40)
        off = np.arange(0, 40, 4)
        dense = DenseEmbeddingBag(rows, dim, seed=0)
        dense.weight = eff.materialize()
        np.testing.assert_allclose(
            eff.forward(idx, off), dense.forward(idx, off), atol=1e-12
        )

    def test_eff_equals_tt_after_training(self, d, rng):
        rows, dim, tt, eff = self._pair(d, seed=2)
        for _ in range(3):
            idx = rng.integers(0, rows, size=30)
            g = rng.standard_normal((30, dim))
            for bag in (tt, eff):
                bag.forward(idx)
                bag.backward(g)
                bag.step(0.05)
        for a, b in zip(tt.tt.cores, eff.tt.cores):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_flag_combinations(self, d, rng):
        rows, dim, tt, _ = self._pair(d, seed=3)
        idx = rng.integers(0, rows, size=25)
        g = rng.standard_normal((25, dim))
        tt.forward(idx)
        tt.backward(g)
        tt.step(0.1)
        for reuse, agg in itertools.product([True, False], repeat=2):
            _, _, _, eff = self._pair(
                d, seed=3, enable_reuse=reuse, enable_grad_aggregation=agg
            )
            eff.forward(idx)
            eff.backward(g)
            eff.step(0.1)
            for a, b in zip(tt.tt.cores, eff.tt.cores):
                np.testing.assert_allclose(a, b, atol=1e-10)

    def test_reuse_plan_prefix_depth(self, d, rng):
        shapes = CONFIGS[d]
        rows = int(np.prod(shapes["row_shape"]))
        idx = rng.integers(0, rows, size=100)
        plan = build_reuse_plan(idx, shapes["row_shape"])
        assert len(plan.prefix_tt_indices) == d - 1
        assert plan.num_unique_prefixes <= plan.num_unique_rows

    def test_gradient_check_numerical(self, d, rng):
        from tests.conftest import assert_grad_close, numerical_gradient

        shapes = CONFIGS[d]
        rows = int(np.prod(shapes["row_shape"]))
        dim = int(np.prod(shapes["col_shape"]))
        bag = TTEmbeddingBag(
            rows, dim, tt_rank=2, num_cores=d, seed=5, **shapes
        )
        idx = rng.integers(0, rows, size=8)
        g = rng.standard_normal((8, dim))
        bag.forward(idx)
        bag.backward(g)
        analytic = [c.copy() for c in bag._pending]
        for k in range(d):
            core0 = bag.tt.cores[k].copy()

            def scalar(core_val, k=k):
                bag.tt.cores[k] = core_val
                out = bag.forward(idx)
                bag._saved = None
                return float((out * g).sum())

            numeric = numerical_gradient(scalar, core0.copy())
            bag.tt.cores[k] = core0
            assert_grad_close(analytic[k], numeric, rtol=1e-4, atol=1e-8)
