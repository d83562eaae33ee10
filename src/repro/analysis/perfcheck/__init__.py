"""perfcheck: static kernel-zone cost & fusion analyzer.

Reconstructs the per-zone dataflow graph of ``ArrayBackend`` call sites,
prices each node with a symbolic cost model (``costmodel``), reports
one-sided PERF findings, and emits the FusionPlan contract.  The
calibration gate (``calibrate``) keeps the model honest: one training
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
from .checker import build_fusion_plan, perfcheck_paths, perfcheck_source
from .interp import PERF_RULES, PerfRuleInfo

__all__ = [
    "PERF_RULES",
    "PerfRuleInfo",
    "perfcheck_paths",
    "perfcheck_source",
    "build_fusion_plan",
    "CostModelPricer",
    "CalibrationReport",
    "ZoneComparison",
    "run_calibration",
]
