"""The under-budget policy: one global rate bisected until the total fits."""

import pytest

from repro.backend import DEFAULT_DTYPE
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.planner import (
    STRATEGY_KINDS,
    binary_search_max,
    build_bags,
    plan_under_budget,
)
from repro.embeddings.registry import build_bag_from_spec
from repro.reorder.stats import TableStats

DIM = 8
COMPRESS_STRATEGIES = tuple(STRATEGY_KINDS)


def make_stats(rows=(1000, 50000, 300, 120000), alpha=1.05):
    return [
        TableStats.from_spec(t, r, alpha) for t, r in enumerate(rows)
    ]


def dense_bytes(stats):
    return sum(st.num_rows for st in stats) * DIM * DEFAULT_DTYPE.itemsize


class TestBinarySearchMax:
    def test_finds_largest_passing(self):
        assert binary_search_max(1, 100, lambda x: x <= 37) == 37
        assert binary_search_max(1, 100, lambda x: True) == 100

    def test_none_when_nothing_fits(self):
        assert binary_search_max(1, 100, lambda x: False) is None


class TestBudgetCompliance:
    @pytest.mark.parametrize("strategy", COMPRESS_STRATEGIES + ("auto",))
    @pytest.mark.parametrize("fraction", [0.5, 0.1, 0.02])
    def test_total_within_budget(self, strategy, fraction):
        stats = make_stats()
        budget = int(dense_bytes(stats) * fraction)
        plan = plan_under_budget(stats, DIM, budget, strategy=strategy)
        if not plan.feasible:
            # Only honest infeasibility is allowed: dense cannot shrink
            # at all, and PQ's int32 code table (rows x M x 4 bytes at
            # M=1) is an irreducible floor.  The emitted plan must be
            # the strategy's minimal configuration.
            assert strategy in ("dense", "pq")
            floor = plan_under_budget(stats, DIM, 1, strategy=strategy)
            assert plan.device_bytes == floor.device_bytes
            assert plan.device_bytes > budget
            return
        assert plan.device_bytes <= budget

    @pytest.mark.parametrize("strategy", ("auto", "hash", "robe", "pq", "tt"))
    def test_realized_equals_planned(self, strategy):
        stats = make_stats()
        budget = int(dense_bytes(stats) * 0.1)
        plan = plan_under_budget(stats, DIM, budget, strategy=strategy)
        for entry, bag in zip(plan.tables, build_bags(plan, [3] * 4)):
            assert isinstance(bag, EmbeddingBagBase)
            assert bag.memory_bytes() == entry.device_bytes
            assert bag.num_embeddings == entry.num_rows
            assert bag.compression_spec().kind == entry.kind

    def test_infeasible_budget_flagged(self):
        stats = make_stats()
        plan = plan_under_budget(stats, DIM, 16, strategy="auto")
        assert not plan.feasible
        # minimal plan still materializes
        assert len(build_bags(plan, [0] * 4)) == 4


class TestDeterminism:
    def test_permutation_invariant(self):
        stats = make_stats()
        budget = int(dense_bytes(stats) * 0.2)
        forward = plan_under_budget(stats, DIM, budget, strategy="auto")
        reverse = plan_under_budget(
            list(reversed(stats)), DIM, budget, strategy="auto"
        )
        assert forward == reverse

    def test_repeat_identical(self):
        stats = make_stats()
        budget = int(dense_bytes(stats) * 0.2)
        a = plan_under_budget(stats, DIM, budget)
        b = plan_under_budget(stats, DIM, budget)
        assert a == b

    def test_duplicate_table_idx_rejected(self):
        stats = make_stats()
        stats.append(stats[0])
        with pytest.raises(ValueError):
            plan_under_budget(stats, DIM, 10_000)


class TestAutoStrategy:
    def test_generous_budget_stays_dense(self):
        stats = make_stats()
        plan = plan_under_budget(
            stats, DIM, dense_bytes(stats) * 2, strategy="auto"
        )
        assert all(t.kind == "dense" for t in plan.tables)
        assert plan.rate == 1.0
        assert plan.device_bytes == dense_bytes(stats)

    def test_tight_budget_compresses_large_tables(self):
        stats = make_stats()
        budget = int(dense_bytes(stats) * 0.05)
        plan = plan_under_budget(stats, DIM, budget, strategy="auto")
        strategies = {t.num_rows: t.kind for t in plan.tables}
        # the big tables cannot stay dense at 5% of dense bytes
        assert strategies[120000] != "dense"
        assert strategies[50000] != "dense"

    def test_format_table_renders(self):
        stats = make_stats()
        plan = plan_under_budget(
            stats, DIM, int(dense_bytes(stats) * 0.2)
        )
        text = plan.format_table()
        assert "under_budget" in text and "rate=" in text
        assert len(text.splitlines()) >= len(stats) + 2


class TestBuildFromSpec:
    @pytest.mark.parametrize("strategy", ("hash", "robe", "pq", "tt"))
    def test_spec_rebuild_matches_shape(self, strategy):
        stats = make_stats()
        plan = plan_under_budget(
            stats, DIM, int(dense_bytes(stats) * 0.1), strategy=strategy
        )
        bag = build_bags(plan, [5] * 4)[-1]
        clone = build_bag_from_spec(bag.compression_spec(), seed=5)
        assert type(clone) is type(bag)
        state, cstate = bag.state_arrays(), clone.state_arrays()
        assert state.keys() == cstate.keys()
        for name in state:
            assert state[name].shape == cstate[name].shape
