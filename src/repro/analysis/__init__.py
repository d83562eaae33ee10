"""Correctness tooling: four static analyzers and a pipeline hazard detector.

Machine-checks the reproduction's determinism, shapes and kernel hygiene
instead of asserting them (``python -m repro analyze`` runs them all):

* ``lint`` (:mod:`.linter`, :mod:`.rules`) — AST rules: seeded RNG only,
  SimClock-only zones, explicit kernel dtypes, batch-loop advisories;
* ``shapecheck``, ``perfcheck``, ``detcheck`` — value domains over the
  one abstract interpreter in :mod:`.walker`: shapes and dtypes, backend
  op sites for the PERF rules, determinism taint (whole-program);
* ``hazards`` (:mod:`.hazards`, :mod:`.shims`) — records per-row pipeline
  reads/writes on a logical clock and reports RAW/WAR hazards;
  ``python -m repro hazards --inject`` shows the §V conflict caught.
"""

from repro.analysis.experiment import (
    HazardExperimentResult,
    run_hazard_experiment,
)
from repro.analysis.detcheck import (
    DET_RULES,
    detcheck_paths,
    detcheck_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.hazards import (
    HAZARD_RULES,
    EventKind,
    Hazard,
    HazardReport,
    RowEvent,
    TraceRecorder,
    analyze_trace,
    hazard_findings,
)
from repro.analysis.linter import (
    LintResult,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.perfcheck import (
    PERF_RULES,
    perfcheck_paths,
    perfcheck_source,
)
from repro.analysis.rules import RULE_REGISTRY, Rule, RuleContext, register
from repro.analysis.sarif import result_to_sarif, results_to_sarif_bundle
from repro.analysis.shapecheck import (
    SHAPE_RULES,
    shapecheck_paths,
    shapecheck_source,
)
from repro.analysis.shims import PipelineProbe, RecordingCache, RecordingQueue

__all__ = [
    "Finding",
    "Severity",
    "LintResult",
    "lint_paths",
    "lint_source",
    "format_findings",
    "RULE_REGISTRY",
    "Rule",
    "RuleContext",
    "register",
    "EventKind",
    "RowEvent",
    "TraceRecorder",
    "Hazard",
    "HazardReport",
    "analyze_trace",
    "PipelineProbe",
    "RecordingCache",
    "RecordingQueue",
    "HazardExperimentResult",
    "run_hazard_experiment",
    "SHAPE_RULES",
    "shapecheck_paths",
    "shapecheck_source",
    "DET_RULES",
    "detcheck_paths",
    "detcheck_source",
    "HAZARD_RULES",
    "hazard_findings",
    "result_to_sarif",
    "results_to_sarif_bundle",
    "PERF_RULES",
    "perfcheck_paths",
    "perfcheck_source",
]
