"""Unit tests for the perfcheck analyzer."""

import pytest

from repro.analysis.perfcheck import PERF_RULES, perfcheck_source
from repro.analysis.perfcheck.interp import interpret_module_perf
from repro.analysis.rules import build_context

ZONE_REL = "repro/embeddings/fake_kernel.py"


def _findings(source, rel=ZONE_REL, select=None):
    return perfcheck_source(source, path=rel, rel=rel, select=select).findings


def _rules(source, **kwargs):
    return [f.rule_id for f in _findings(source, **kwargs)]


class TestRuleCatalog:
    def test_catalog_ids_are_unique_and_complete(self):
        ids = [rule.id for rule in PERF_RULES.values()]
        assert len(ids) == len(set(ids))
        # 002 (unfused-contraction) and 004 (plan-cache-bypass) are
        # retired, not reused.
        assert {f"PERF{n:03d}" for n in (0, 1, 3, 5, 6, 7)} == set(ids)

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
    def test_segment_gemm_site_records_op_and_zone(self):
        src = """
import numpy as np
from repro.backend import get_backend
from repro.backend.protocol import ZONE_EFFTT_BACKWARD

def backward(tmp: np.ndarray, right: np.ndarray, groups, U, m, n, k):
    bk = get_backend()
    with bk.zone(ZONE_EFFTT_BACKWARD):
        return bk.matmul_segment_sum(
            tmp.reshape(U, m, k), b=right.reshape(U, n, k), groups=groups
        )
"""
        ctx = build_context(ZONE_REL, ZONE_REL, src)
        (node,) = interpret_module_perf(ctx).nodes
        assert (node.op, node.zone) == ("matmul_segment_sum", "efftt_backward")
        assert not hasattr(node, "flops") and not hasattr(node, "bytes")

    def test_call_that_does_not_fit_the_op_table_is_not_recorded(self):
        src = """
from repro.backend import get_backend

def f(a, b, pair):
    bk = get_backend()
    bk.minimum(a, b)        # not a protocol method
    bk.matmul(a)            # wrong arity
    bk.matmul(*pair)        # unknown arity
    bk.matmul(a, c=b)       # unknown keyword
    return bk.matmul(a, b=b)
"""
        ctx = build_context(ZONE_REL, ZONE_REL, src)
        assert [n.op for n in interpret_module_perf(ctx).nodes] == ["matmul"]
