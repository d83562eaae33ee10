"""Shapecheck: static shape/dtype checking over backend kernel zones.

The shared abstract interpreter (:mod:`repro.analysis.walker`) run over
abstract tensors (symbolic shapes + dtypes): shapes propagate through
``matmul``/``gather_rows``/``scatter_add_rows``/reshape/transpose,
TT-core chain shapes derive from :class:`TTSpec` metadata, and the
one-float-dtype-per-zone policy is enforced.  Findings reuse the
reprolint machinery (severities, pragmas, JSON/SARIF output).

Entry points: :func:`shapecheck_paths`, :func:`shapecheck_source`, and
``python -m repro shapecheck``.
"""

from repro.analysis.shapecheck.checker import (
    SHAPE_RULES,
    shapecheck_paths,
    shapecheck_source,
)
from repro.analysis.shapecheck.domain import (
    TOP,
    Dim,
    SymDim,
    TensorVal,
    broadcast_shapes,
    dims_conflict,
    dims_equal,
)
from repro.analysis.shapecheck.interp import interpret_module

__all__ = [
    "SHAPE_RULES",
    "shapecheck_paths",
    "shapecheck_source",
    "interpret_module",
    "TensorVal",
    "SymDim",
    "Dim",
    "TOP",
    "dims_equal",
    "dims_conflict",
    "broadcast_shapes",
]
