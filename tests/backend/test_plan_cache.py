"""Contraction-plan cache: keying, LRU bounds, and FLOP metadata."""

import pytest

from repro.backend import (
    ContractionPlanCache,
    get_plan_cache,
    reset_plan_cache,
)

CORE_SHAPES = ((5, 1, 4, 8), (5, 8, 4, 8), (8, 8, 4, 1))


class TestChainPlans:
    def test_plan_covers_every_core(self):
        cache = ContractionPlanCache()
        plan = cache.chain_plan("chain_forward", CORE_SHAPES)
        assert len(plan.stages) == len(CORE_SHAPES)
        assert [s.core_index for s in plan.stages] == [0, 1, 2]

    def test_flops_per_row_is_sum_of_gemms(self):
        cache = ContractionPlanCache()
        plan = cache.chain_plan("chain_forward", CORE_SHAPES)
        # Stage 0 is the gather (no GEMM); stage k contracts the
        # accumulated (prod n_l, r_in) prefix against (r_in, n_k*r_out).
        expected = 0
        prefix = 1
        for k, (_m, r_in, n_k, r_out) in enumerate(CORE_SHAPES):
            if k > 0:
                expected += 2 * prefix * r_in * n_k * r_out
            prefix *= n_k
        assert plan.flops_per_row == expected
        assert plan.flops(64) == 64 * expected
        assert plan.stages[0].flops_per_row == 0

    def test_same_spec_hits_regardless_of_batch(self):
        # Chain keys are batch-extent-invariant: the second batch of a
        # training run hits even when its unique-row count differs.
        cache = ContractionPlanCache()
        first = cache.chain_plan("chain_forward", CORE_SHAPES)
        second = cache.chain_plan("chain_forward", CORE_SHAPES)
        assert first is second
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_forward_and_backward_keyed_separately(self):
        cache = ContractionPlanCache()
        cache.chain_plan("chain_forward", CORE_SHAPES)
        cache.chain_plan("chain_backward", CORE_SHAPES)
        assert cache.misses == 2


class TestLruBehaviour:
    def test_eviction_at_capacity(self):
        cache = ContractionPlanCache(max_entries=2)
        cache.chain_plan("chain_forward", ((2, 1, 2, 3),))
        cache.chain_plan("chain_forward", ((3, 1, 2, 3),))
        cache.chain_plan("chain_forward", ((4, 1, 2, 3),))
        assert len(cache) == 2
        # Oldest entry was evicted: re-requesting it misses again.
        cache.chain_plan("chain_forward", ((2, 1, 2, 3),))
        assert cache.misses == 4

    def test_hit_refreshes_recency(self):
        cache = ContractionPlanCache(max_entries=2)
        cache.chain_plan("chain_forward", ((2, 1, 2, 3),))
        cache.chain_plan("chain_forward", ((3, 1, 2, 3),))
        cache.chain_plan("chain_forward", ((2, 1, 2, 3),))  # refresh
        cache.chain_plan("chain_forward", ((4, 1, 2, 3),))  # evicts (3,...)
        cache.chain_plan("chain_forward", ((2, 1, 2, 3),))
        assert cache.hits == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ContractionPlanCache(max_entries=0)

    def test_clear_zeroes_counters(self):
        cache = ContractionPlanCache()
        cache.chain_plan("chain_forward", CORE_SHAPES)
        cache.clear()
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0}


class TestProcessWideCache:
    def test_singleton_reset(self):
        reset_plan_cache()
        pc = get_plan_cache()
        assert pc.stats["entries"] == 0
        pc.chain_plan("chain_forward", CORE_SHAPES)
        assert get_plan_cache() is pc
        assert get_plan_cache().stats["entries"] == 1
        reset_plan_cache()
        assert pc.stats["entries"] == 0
