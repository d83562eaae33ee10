"""Unit tests for the perfcheck analyzer and its cost model."""

import pytest

from repro.analysis.perfcheck import PERF_RULES, perfcheck_source
from repro.analysis.perfcheck.costmodel import (
    Cost,
    cost_add,
    cost_scale,
    gather_matmul_cost,
    matmul_cost,
    matmul_segment_sum_cost,
    nbytes_cost,
    tt_chain_flops_per_row,
)
from repro.analysis.perfcheck.interp import interpret_module_perf
from repro.analysis.rules import build_context
from repro.analysis.shapecheck.domain import SymDim
from repro.backend.plan_cache import get_plan_cache

ZONE_REL = "repro/embeddings/fake_kernel.py"


def _findings(source, rel=ZONE_REL, select=None):
    return perfcheck_source(source, path=rel, rel=rel, select=select).findings


def _rules(source, **kwargs):
    return [f.rule_id for f in _findings(source, **kwargs)]


class TestCostModel:
    def test_cost_algebra(self):
        b = SymDim("batch")
        c = Cost.product(2, (b, 8, 4))
        assert c is not None and c.value is None
        assert c.expr == "64*batch"
        assert Cost.product(3, (5, 2)).value == 30
        total = cost_add(c, Cost.concrete(10))
        assert total.expr == "10 + 64*batch"
        assert cost_scale(Cost.concrete(7), 3).value == 21
        assert cost_add(c, None) is None
        assert Cost.product(1, (None, 8)) is None

    def test_nbytes_symbolic_itemsize(self):
        # Unknown dtype contributes a symbolic itemsize factor.
        sized = nbytes_cost((4, 4), "float32")
        assert sized.value == 64
        unsized = nbytes_cost((4, 4), None)
        assert unsized.value is None and "itemsize" in unsized.expr

    def test_matmul_cost_matches_instrumented_formula(self):
        # (3, 4, 5) @ (3, 5, 6): 2 * batch * m * k * n.
        cost = matmul_cost(
            (3, 4, 5), "float32", (3, 5, 6), "float32", (3, 4, 6), "float32"
        )
        assert cost.flops.value == 2 * 3 * 4 * 5 * 6
        assert cost.bytes.value == 4 * (3 * 4 * 5 + 3 * 5 * 6 + 3 * 4 * 6)

    def test_segment_gemm_costs_match_instrumented_formulas(self):
        # 7 rows of (4, 5) against 3 distinct (5, 6) slices of a 9-slice
        # table: the per-row matmul's FLOPs, each distinct slice read once.
        gathered = gather_matmul_cost(
            (7, 4, 5), "float64", (9, 5, 6), "float64", 3, (7, 4, 6), "float64"
        )
        assert gathered.flops.value == 2 * 7 * 4 * 5 * 6
        assert gathered.bytes.value == 8 * (7 * 4 * 5 + 3 * 5 * 6 + 7 * 4 * 6)
        # a (7, 4, 5) @ b (7, 6, 5)^T summed into 3 blocks.
        summed = matmul_segment_sum_cost(
            (7, 4, 5), "float32", (7, 6, 5), "float32", (3, 4, 6), "float32"
        )
        assert summed.flops.value == 2 * 7 * 4 * 5 * 6
        assert summed.bytes.value == 4 * (7 * 4 * 5 + 7 * 6 * 5 + 3 * 4 * 6)
        # Statically the group count is unknown, so the bytes are too.
        static = gather_matmul_cost(
            (SymDim("U"), 4, 5), None, (9, 5, 6), None, None, None, None
        )
        assert static.flops.expr == "240*U" and static.bytes is None

    def test_tt_chain_flops_match_plan_cache(self):
        core_shapes = ((4, 1, 5, 8), (4, 8, 5, 8), (4, 8, 5, 1))
        plan = get_plan_cache().chain_plan("unit", core_shapes)
        assert tt_chain_flops_per_row(core_shapes) == plan.flops_per_row


class TestRuleCatalog:
    def test_catalog_ids_are_unique_and_complete(self):
        ids = [rule.id for rule in PERF_RULES.values()]
        assert len(ids) == len(set(ids))
        # 002 (the unfused-contraction advisory) is retired, not reused.
        assert {f"PERF{n:03d}" for n in (0, 1, 3, 4, 5, 6, 7)} == set(ids)

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            perfcheck_source("x = 1", select=["no-such-rule"])


HOT_ALLOC = """
from repro.backend import get_backend
from repro.backend.protocol import ZONE_TT_BACKWARD

def f(g):
    bk = get_backend()
    with bk.zone(ZONE_TT_BACKWARD):
        for k in range(4):
            seed = bk.ones((8, 1, 1), dtype="float32")
    return seed
"""


class TestRules:
    def test_hot_loop_alloc_fires(self):
        assert "PERF001" in _rules(HOT_ALLOC)

    def test_hot_loop_alloc_needs_zone_and_loop(self):
        no_zone = HOT_ALLOC.replace(
            "with bk.zone(ZONE_TT_BACKWARD):", "if True:"
        )
        assert "PERF001" not in _rules(no_zone)

    def test_pragma_suppresses(self):
        suppressed = HOT_ALLOC.replace(
            'dtype="float32")',
            'dtype="float32")  # reprolint: disable=hot-loop-alloc',
        )
        result = perfcheck_source(suppressed, path=ZONE_REL, rel=ZONE_REL)
        assert result.findings == [] and result.suppressed == 1

    def test_select_filters_rules(self):
        assert _rules(HOT_ALLOC, select=["layout-churn"]) == []
        assert "PERF001" in _rules(HOT_ALLOC, select=["PERF001"])

    def test_layout_churn_only_in_kernel_paths(self):
        src = "def f(x):\n    return x.transpose(0, 2, 1).reshape(4, 6)\n"
        assert "PERF003" in _rules(src)
        assert _rules(src, rel="repro/bench/report.py") == []

    def test_zone_param_default_binds_declared_zone(self):
        # Chain kernels declare their zone as a default parameter; the
        # body must be analyzed under it (the tt_chain_backward pattern).
        src = """
from repro.backend import get_backend
from repro.backend.protocol import ZONE_TT_BACKWARD

def kernel(g, zone=ZONE_TT_BACKWARD):
    bk = get_backend()
    with bk.zone(zone):
        for k in range(4):
            seed = bk.ones((8, 1, 1), dtype="float32")
    return seed
"""
        assert "PERF001" in _rules(src)


class TestOpNodes:
    def test_nodes_carry_symbolic_shapes_and_costs(self):
        src = """
import numpy as np
from repro.backend import get_backend
from repro.backend.protocol import ZONE_EFFTT_BACKWARD

def backward(tmp: np.ndarray, right: np.ndarray, groups, U, m, n, k):
    bk = get_backend()
    with bk.zone(ZONE_EFFTT_BACKWARD):
        return bk.matmul_segment_sum(
            tmp.reshape(U, m, k), right.reshape(U, n, k), groups
        )
"""
        ctx = build_context(ZONE_REL, ZONE_REL, src)
        (node,) = interpret_module_perf(ctx).nodes
        assert (node.op, node.zone) == ("matmul_segment_sum", "efftt_backward")
        assert node.out_shape == (None, SymDim("m"), SymDim("n"))
        assert node.flops.expr == "2*U*k*m*n"
        assert node.bytes is None  # one block per distinct id: run-time data
