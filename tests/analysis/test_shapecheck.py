"""Unit tests for the shapecheck abstract interpreter."""

import pytest

from repro.analysis.shapecheck import SHAPE_RULES, shapecheck_source
from repro.analysis.shapecheck.domain import (
    SymDim,
    broadcast_shapes,
    dims_conflict,
    dims_equal,
    promote_dtypes,
    resolve_dtype,
    DottedVal,
)


def _rules(result):
    return [f.rule for f in result.findings]


class TestDomain:
    def test_dims_equal_and_conflict(self):
        b = SymDim("B")
        assert dims_equal(4, 4) and dims_equal(b, SymDim("B"))
        assert not dims_equal(4, 5) and not dims_equal(b, None)
        assert dims_conflict(4, 5)
        assert not dims_conflict(4, b) and not dims_conflict(b, None)

    def test_broadcast_rules(self):
        b = SymDim("B")
        shape, conflict = broadcast_shapes((b, 1), (1, 8))
        assert shape == (b, 8) and not conflict
        _, conflict = broadcast_shapes((4, 8), (4, 9))
        assert conflict
        # Symbolic vs concrete never provably conflicts.
        _, conflict = broadcast_shapes((b, 8), (4, 8))
        assert not conflict

    def test_dtype_resolution_and_promotion(self):
        assert resolve_dtype(DottedVal("numpy.float32")) == "float32"
        assert resolve_dtype("float64") == "float64"
        assert resolve_dtype(DottedVal("numpy.void")) is None
        assert promote_dtypes("float32", "float64") == "float64"
        assert promote_dtypes(None, "float32") == "float32"
        assert promote_dtypes(None, None) is None


class TestInterpreter:
    def test_symbolic_code_stays_clean(self):
        src = """
import numpy as np
from repro.backend import get_backend, ZONE_MLP

def forward(x, weight):
    bk = get_backend()
    with bk.zone(ZONE_MLP):
        out = bk.matmul(x, weight.T)
        return bk.maximum(out, 0.0)
"""
        assert shapecheck_source(src).findings == []

    def test_matmul_conflict_inside_zone(self):
        src = """
import numpy as np
from repro.backend import get_backend, ZONE_MLP
bk = get_backend()
a = bk.zeros((8, 16), dtype=np.float32)
w = bk.zeros((32, 4), dtype=np.float32)
with bk.zone(ZONE_MLP):
    out = bk.matmul(a, w)
"""
        assert _rules(shapecheck_source(src)) == ["matmul-shape"]

    def test_checks_fire_outside_zones_too(self):
        src = """
import numpy as np
a = np.zeros((4, 4), dtype=np.float32)
b = np.zeros((3, 3), dtype=np.float32)
c = a + b
"""
        assert _rules(shapecheck_source(src)) == ["broadcast-shape"]

    def test_tt_core_shapes_derive_from_spec(self):
        src = """
import numpy as np
from repro.backend import get_backend, ZONE_TT_FORWARD
from repro.embeddings.tt_core import TTCores, TTSpec

spec = TTSpec.create((4, 5, 6), (2, 2, 1), 3)
tt = TTCores.random_init(spec, seed=0, dtype=np.float32)
cores = tt.cores
idx = np.array([0, 1, 2])
bk = get_backend()
with bk.zone(ZONE_TT_FORWARD):
    left = bk.gather_rows(cores[0], idx).reshape(3, 2, 3)
    right = bk.gather_rows(cores[1], idx).reshape(3, 3, 6)
    out = bk.matmul(left, right)
"""
        assert shapecheck_source(src).findings == []
        # Core 1 folded rank-last makes the same chain provably wrong.
        mutated = src.replace("reshape(3, 3, 6)", "reshape(3, 6, 3)")
        assert _rules(shapecheck_source(mutated)) == ["matmul-shape"]

    def test_reshape_minus_one_is_inferred(self):
        src = """
import numpy as np
x = np.zeros((8, 6), dtype=np.float32)
y = x.reshape(8, -1, 3)
z = y.reshape(8, 7)
"""
        result = shapecheck_source(src)
        assert _rules(result) == ["reshape-elements"]
        assert "48" in result.findings[0].message

    def test_dtype_policy_is_zone_scoped(self):
        mixed = """
import numpy as np
from repro.backend import get_backend, ZONE_OPTIMIZER
bk = get_backend()
with bk.zone(ZONE_OPTIMIZER):
    a = bk.zeros((4,), dtype=np.float32)
    b = bk.zeros((4,), dtype=np.float64)
"""
        assert _rules(shapecheck_source(mixed)) == ["dtype-upcast"]
        # The same allocations outside any zone are not policed.
        unzoned = """
import numpy as np
from repro.backend import get_backend
bk = get_backend()
a = bk.zeros((4,), dtype=np.float32)
b = bk.zeros((4,), dtype=np.float64)
"""
        assert shapecheck_source(unzoned).findings == []

    def test_loop_bodies_are_widened(self):
        # `left` is reassigned in the loop, so inside the body it is
        # unknown (a generic iteration), not the concrete pre-loop
        # shape; a name the loop does not assign keeps its shape.
        src = """
import numpy as np
from repro.backend import get_backend, ZONE_TT_FORWARD
bk = get_backend()
left = bk.zeros((8, 2, 3), dtype=np.float32)
core = bk.zeros((8, 4, 5), dtype=np.float32)
with bk.zone(ZONE_TT_FORWARD):
    for k in range(3):
        left = bk.matmul(left, core)
"""
        assert shapecheck_source(src).findings == []
        not_carried = src.replace("left = bk.matmul", "out = bk.matmul")
        assert _rules(shapecheck_source(not_carried)) == ["matmul-shape"]

    def test_branches_merge_to_unknown(self):
        src = """
import numpy as np
if flag:
    x = np.zeros((4, 4), dtype=np.float32)
else:
    x = np.zeros((5, 5), dtype=np.float32)
y = x + np.zeros((6, 6), dtype=np.float32)
"""
        assert shapecheck_source(src).findings == []

    def test_pragma_suppression(self):
        src = """
import numpy as np
a = np.zeros((4, 4), dtype=np.float32)
b = np.zeros((3, 3), dtype=np.float32)
c = a + b  # reprolint: disable=broadcast-shape
"""
        result = shapecheck_source(src)
        assert result.findings == []
        assert result.suppressed == 1

    def test_select_filters_rules(self):
        src = """
import numpy as np
a = np.zeros((4, 4), dtype=np.float32)
b = np.zeros((3, 3), dtype=np.float32)
c = a + b
d = a.reshape(2, 9)
"""
        result = shapecheck_source(src, select=["reshape-elements"])
        assert _rules(result) == ["reshape-elements"]
        with pytest.raises(KeyError):
            shapecheck_source(src, select=["nope"])

    def test_scatter_index_bounds(self):
        src = """
import numpy as np
from repro.backend import get_backend, ZONE_PS_APPLY
bk = get_backend()
table = bk.zeros((10, 4), dtype=np.float32)
vals = bk.zeros((2, 4), dtype=np.float32)
with bk.zone(ZONE_PS_APPLY):
    bk.scatter_add_rows(table, np.array([3, 12]), vals)
"""
        assert _rules(shapecheck_source(src)) == ["gather-index"]

    def test_rule_catalog_is_complete(self):
        # SHP001-SHP003 (einsum subscripts/rank/extents) are retired
        # with the last einsum call, not reused.
        assert {r.id for r in SHAPE_RULES.values()} == {
            "SHP004",
            "SHP005",
            "SHP006",
            "SHP007",
            "SHP008",
        }
