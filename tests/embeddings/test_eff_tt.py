"""Tests for the Eff-TT embedding bag — the paper's core artifact.

The crucial property: every combination of the three optimization flags
computes *the same mathematics* as the naive TT-Rec baseline; the flags
only change how much work is done.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag


def _make_pair(seed=0, **flags):
    kwargs = dict(
        num_embeddings=24,
        embedding_dim=8,
        tt_rank=4,
        row_shape=[4, 3, 2],
        col_shape=[2, 2, 2],
        seed=seed,
        dtype=np.float64,  # equivalence is pinned at atol 1e-10
    )
    baseline = TTEmbeddingBag(**kwargs)
    eff = EffTTEmbeddingBag(**kwargs, **flags)
    return baseline, eff


class TestForwardEquivalence:
    def test_same_seed_same_tables(self):
        baseline, eff = _make_pair(seed=3)
        for a, b in zip(baseline.tt.cores, eff.tt.cores):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("enable_reuse", [True, False])
    def test_forward_matches_baseline(self, enable_reuse, rng):
        baseline, eff = _make_pair(seed=1, enable_reuse=enable_reuse)
        idx = rng.integers(0, 24, size=40)
        off = np.arange(0, 40, 4)
        np.testing.assert_allclose(
            eff.forward(idx, off), baseline.forward(idx, off), atol=1e-12
        )

    def test_forward_with_heavy_duplication(self, rng):
        baseline, eff = _make_pair(seed=2)
        idx = rng.integers(0, 4, size=100)  # tiny range -> huge reuse
        np.testing.assert_allclose(
            eff.forward(idx), baseline.forward(idx), atol=1e-12
        )

    def test_plan_recorded(self, rng):
        _, eff = _make_pair()
        idx = np.array([0, 0, 1, 6])
        eff.forward(idx)
        assert eff.last_plan is not None
        assert eff.last_plan.num_occurrences == 4
        assert eff.last_plan.num_unique_rows == 3

    def test_empty_bags(self):
        _, eff = _make_pair()
        out = eff.forward(np.array([1, 2], dtype=np.int64), np.array([0, 0, 2]))
        assert out.shape == (2, 8)
        np.testing.assert_array_equal(out[0], np.zeros(8))


class TestBackwardEquivalence:
    @pytest.mark.parametrize(
        "reuse,agg,fused",
        list(itertools.product([True, False], repeat=3)),
    )
    def test_all_flag_combinations_match_baseline(self, reuse, agg, fused, rng):
        baseline, eff = _make_pair(
            seed=5,
            enable_reuse=reuse,
            enable_grad_aggregation=agg,
            enable_fused_update=fused,
        )
        idx = rng.integers(0, 24, size=60)
        off = np.arange(0, 60, 5)
        g = rng.standard_normal((12, 8))

        out_b = baseline.forward(idx, off)
        out_e = eff.forward(idx, off)
        np.testing.assert_allclose(out_e, out_b, atol=1e-12)

        baseline.backward(g)
        baseline.step(0.05)
        eff.backward(g)
        eff.step(0.05)
        for k, (a, b) in enumerate(zip(baseline.tt.cores, eff.tt.cores)):
            np.testing.assert_allclose(a, b, atol=1e-10, err_msg=f"core {k}")

    def test_backward_and_step_fused_call(self, rng):
        baseline, eff = _make_pair(seed=6)
        idx = rng.integers(0, 24, size=20)
        g = rng.standard_normal((20, 8))
        baseline.forward(idx)
        baseline.backward(g)
        baseline.step(0.1)
        eff.forward(idx)
        eff.backward_and_step(g, 0.1)
        for a, b in zip(baseline.tt.cores, eff.tt.cores):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_multiple_steps_stay_consistent(self, rng):
        baseline, eff = _make_pair(seed=7)
        for step in range(5):
            idx = rng.integers(0, 24, size=30)
            g = rng.standard_normal((30, 8))
            for bag in (baseline, eff):
                bag.forward(idx)
                bag.backward(g)
                bag.step(0.02)
        for a, b in zip(baseline.tt.cores, eff.tt.cores):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_pop_pending_update(self, rng):
        _, eff = _make_pair(seed=8)
        idx = rng.integers(0, 24, size=10)
        eff.forward(idx)
        eff.backward(rng.standard_normal((10, 8)))
        pending = eff.pop_pending_update()
        assert pending["mode"] == "fused"
        with pytest.raises(RuntimeError):
            eff.pop_pending_update()
        # applying with scale 0 is a no-op
        before = [c.copy() for c in eff.tt.cores]
        eff.apply_pending_update(pending, lr=0.1, scale=0.0)
        for a, b in zip(before, eff.tt.cores):
            np.testing.assert_array_equal(a, b)

    def test_errors(self):
        _, eff = _make_pair()
        with pytest.raises(RuntimeError):
            eff.backward(np.zeros((1, 8)))
        with pytest.raises(RuntimeError):
            eff.step(0.1)
        eff.forward(np.array([0]))
        with pytest.raises(ValueError):
            eff.backward(np.zeros((9, 8)))


class TestComputationSavings:
    def test_reuse_reduces_partial_gemms(self, rng):
        _, eff = _make_pair()
        idx = np.repeat(rng.integers(0, 24, size=5), 20)
        eff.forward(idx)
        plan = eff.last_plan
        assert plan.gemm_count() <= 5
        assert plan.naive_gemm_count() == 100

    def test_compression_ratio_and_bytes(self):
        eff = EffTTEmbeddingBag(100_000, 32, tt_rank=8, seed=0)
        assert eff.compression_ratio() > 10
        assert eff.nbytes == eff.spec.num_params * 4  # float32, the default
        assert eff.nbytes_as(np.float32) == eff.spec.num_params * 4


@given(
    st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=64),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_property_eff_tt_equals_baseline(indices, seed):
    """Property: Eff-TT ≡ TT-Rec on arbitrary batches and gradients."""
    baseline, eff = _make_pair(seed=9)
    idx = np.array(indices, dtype=np.int64)
    g_rng = np.random.default_rng(seed)
    g = g_rng.standard_normal((idx.size, 8))
    out_b = baseline.forward(idx)
    out_e = eff.forward(idx)
    np.testing.assert_allclose(out_e, out_b, atol=1e-12)
    baseline.backward(g)
    baseline.step(0.1)
    eff.backward(g)
    eff.step(0.1)
    for a, b in zip(baseline.tt.cores, eff.tt.cores):
        np.testing.assert_allclose(a, b, atol=1e-10)
