"""perfcheck: static kernel-zone cost analyzer.

Records the ``ArrayBackend`` call sites of every kernel zone, prices
each with a symbolic cost model (``costmodel``) and reports one-sided
PERF findings.  The calibration gate (``calibrate``) keeps the model honest: one training
run under the backend interposer, watched by the hand-written
``CostCounter`` and by ``CostModelPricer`` (the cost model applied to
runtime shapes), compared zone by zone.  See DESIGN.md §14.
"""

from .calibrate import (
    CalibrationReport,
    CostModelPricer,
    ZoneComparison,
    run_calibration,
)
from .checker import perfcheck_paths, perfcheck_source
from .interp import PERF_RULES, PerfRuleInfo

__all__ = [
    "PERF_RULES",
    "PerfRuleInfo",
    "perfcheck_paths",
    "perfcheck_source",
    "CostModelPricer",
    "CalibrationReport",
    "ZoneComparison",
    "run_calibration",
]
