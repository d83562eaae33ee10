"""perfcheck: static kernel-zone performance analyzer.

Walks every module with the shapecheck domain, records the
``ArrayBackend`` call sites of each kernel zone (which op, in which
zone, loop and branch) and reports one-sided PERF findings.  It prices
nothing: what an op costs is measured, by
:class:`~repro.backend.counter.CostCounter` from the op table's
formulas.  See DESIGN.md §14.
"""

from .checker import perfcheck_paths, perfcheck_source
from .interp import PERF_RULES

__all__ = [
    "PERF_RULES",
    "perfcheck_paths",
    "perfcheck_source",
]
