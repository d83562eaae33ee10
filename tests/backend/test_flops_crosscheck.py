"""Analytic FLOP model vs. instrumented backend: counts must agree.

``embeddings/flops.py`` derives chain-contraction FLOPs from the TT
spec and reuse statistics; the ``InstrumentedBackend`` derives them
from the runtime shapes of every matmul the kernels actually issue.
Both are exact (2 FLOPs per multiply-add), so they must agree to the
FLOP — any gap means the analytic model and the kernels have diverged.
"""

import numpy as np

from repro.backend import (
    ZONE_EFFTT_BACKWARD,
    ZONE_EFFTT_FORWARD,
    ZONE_TT_FORWARD,
    InstrumentedBackend,
    get_plan_cache,
    use_backend,
)
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.flops import (
    efftt_backward_flops,
    efftt_forward_flops,
    measured_zone_flops,
    tt_forward_flops,
)
from repro.embeddings.tt_core import row_index_to_tt
from repro.embeddings.tt_embedding import TTEmbeddingBag, tt_chain_forward


class TestForwardCounts:
    def test_tt_chain_forward_matches_analytic(self):
        bag = TTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 1000, size=37)
        tt_idx = row_index_to_tt(idx, bag.tt.spec.row_shape)
        inst = InstrumentedBackend()
        with use_backend(inst):
            tt_chain_forward(bag.tt.cores, tt_idx)
        assert measured_zone_flops(inst, ZONE_TT_FORWARD) == tt_forward_flops(
            bag.tt.spec, num_items=idx.size
        )

    def test_efftt_forward_matches_analytic(self):
        bag = EffTTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 1000, size=64)
        inst = InstrumentedBackend()
        with use_backend(inst):
            bag.forward(idx, np.arange(idx.size))
        plan = bag.last_plan
        assert measured_zone_flops(
            inst, ZONE_EFFTT_FORWARD
        ) == efftt_forward_flops(
            bag.tt.spec, plan.num_unique_prefixes, plan.num_unique_rows
        )


class TestBackwardCounts:
    def test_efftt_backward_matches_analytic(self):
        bag = EffTTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 1000, size=64)
        inst = InstrumentedBackend()
        with use_backend(inst):
            out = bag.forward(idx, np.arange(idx.size))
            bag.backward(rng.standard_normal(out.shape))
        plan = bag.last_plan
        assert measured_zone_flops(
            inst, ZONE_EFFTT_BACKWARD
        ) == efftt_backward_flops(
            bag.tt.spec, plan.num_unique_prefixes, plan.num_unique_rows
        )


class TestPlanFlopMetadata:
    def test_chain_plan_flops_match_analytic_forward(self):
        bag = TTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
        plan = get_plan_cache().chain_plan(
            "chain_forward", tuple(c.shape for c in bag.tt.cores)
        )
        # Stage 0 is the gather (zero FLOPs), so the whole-plan per-row
        # cost is exactly the analytic chain count.
        assert plan.flops_per_row == tt_forward_flops(bag.tt.spec, num_items=1)
