"""Tests for analytic TT-kernel FLOP accounting."""

import numpy as np
import pytest

from repro.embeddings.flops import (
    efftt_backward_flops,
    efftt_forward_flops,
    plan_backward_flops,
    plan_forward_flops,
    tt_backward_flops,
    tt_forward_flops,
)
from repro.embeddings.reuse_buffer import build_reuse_plan
from repro.embeddings.tt_core import TTSpec


@pytest.fixture
def spec():
    return TTSpec.create([10, 10, 10], [4, 4, 4], 16)


class TestForwardFlops:
    def test_linear_in_items(self, spec):
        assert tt_forward_flops(spec, 200) == 2 * tt_forward_flops(spec, 100)

    def test_zero_items(self, spec):
        assert tt_forward_flops(spec, 0) == 0
        assert efftt_forward_flops(spec, 0, 0) == 0

    def test_hand_computed_chain(self):
        # d=2: single stage (a=n1, r=R1) x (R1, n2*1)
        spec2 = TTSpec.create([4, 4], [2, 2], 3)
        expected = 2 * 2 * 3 * 2 * 1  # 2*a*R1*n2*R2
        assert tt_forward_flops(spec2, 1) == expected

    def test_reuse_never_more_expensive(self, spec):
        naive = tt_forward_flops(spec, 100)
        # worst case: all prefixes and rows unique
        eff = efftt_forward_flops(spec, 100, 100)
        assert eff <= naive

    def test_reuse_saves_with_sharing(self, spec):
        full = efftt_forward_flops(spec, 100, 100)
        shared = efftt_forward_flops(spec, 10, 100)
        assert shared < full

    def test_negative_rejected(self, spec):
        with pytest.raises(ValueError):
            tt_forward_flops(spec, -1)
        with pytest.raises(ValueError):
            efftt_forward_flops(spec, -1, 0)


class TestBackwardFlops:
    def test_backward_more_expensive_than_forward(self, spec):
        """The paper's observation: TT backward costs ~d x the lookup."""
        assert tt_backward_flops(spec, 100) > tt_forward_flops(spec, 100)

    def test_aggregation_scales_with_unique(self, spec):
        # Reverse mode through the Reuse Buffer: every forward GEMM runs
        # backwards twice on the unique rows / prefixes it ran on, so the
        # aggregated backward is twice the reused forward — far below
        # the per-occurrence chain it replaces.
        aggregated = efftt_backward_flops(spec, 100, 250)
        assert aggregated == 2 * efftt_forward_flops(spec, 100, 250)
        assert aggregated < efftt_backward_flops(spec, 250, 250)
        assert 4 * aggregated < tt_backward_flops(spec, 1000)

    def test_zero(self, spec):
        assert efftt_backward_flops(spec, 0, 0) == 0

    def test_negative_rejected(self, spec):
        with pytest.raises(ValueError):
            tt_backward_flops(spec, -2)
        with pytest.raises(ValueError):
            efftt_backward_flops(spec, -2, 0)


class TestPlanFlops:
    def test_plan_driven_counts(self, spec):
        idx = np.array([0, 0, 1, 1, 55, 999])
        plan = build_reuse_plan(idx, spec.row_shape)
        naive_fwd = plan_forward_flops(spec, plan, reuse=False)
        eff_fwd = plan_forward_flops(spec, plan, reuse=True)
        assert naive_fwd == tt_forward_flops(spec, 6)
        assert eff_fwd == efftt_forward_flops(
            spec, plan.num_unique_prefixes, plan.num_unique_rows
        )
        assert eff_fwd < naive_fwd

    def test_backward_plan_counts(self, spec):
        idx = np.repeat(np.array([3, 7, 500]), 10)
        plan = build_reuse_plan(idx, spec.row_shape)
        assert plan_backward_flops(spec, plan, aggregate=True) == (
            efftt_backward_flops(spec, plan.num_unique_prefixes, 3)
        )
        assert plan_backward_flops(spec, plan, aggregate=False) == (
            tt_backward_flops(spec, 30)
        )

    def test_flops_ratio_matches_measured_speedup_direction(self):
        """Analytic ratios and wall-clock ratios agree in direction.

        At the model's float32: the reuse plan is one sort of the batch
        plus digit sorts over its unique rows and prefixes, and every
        GEMM reads its operand where it lies, so the FLOPs the plan saves
        show on the wall clock too.  The two forwards are timed in
        alternation, seven times each, and their medians compared, so a
        burst of load on the host lands on both.
        """
        from repro.data.synthetic import ZipfSampler
        from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
        from repro.embeddings.tt_embedding import TTEmbeddingBag
        from repro.utils.timer import Timer

        num_rows, dim, rank, batch = 100_000, 16, 16, 2048
        sampler = ZipfSampler(num_rows, alpha=1.1, seed=0)
        idx = sampler.sample(batch, np.random.default_rng(0))
        eff = EffTTEmbeddingBag(num_rows, dim, tt_rank=rank, seed=0)
        tt = TTEmbeddingBag(num_rows, dim, tt_rank=rank, seed=0)
        plan = build_reuse_plan(idx, eff.spec.row_shape)

        flops_ratio = plan_forward_flops(eff.spec, plan, reuse=False) / max(
            1, plan_forward_flops(eff.spec, plan, reuse=True)
        )
        timers = [(tt, Timer()), (eff, Timer())]
        for bag, _ in timers:
            bag.forward(idx)  # warm-up
        for _ in range(7):
            for bag, timer in timers:
                with timer:
                    bag.forward(idx)
        measured_ratio = timers[0][1].median / timers[1][1].median
        assert flops_ratio > 1.0
        assert measured_ratio > 1.0
