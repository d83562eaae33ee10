"""Correctness tooling: two static analyzers and a pipeline hazard detector.

Machine-checks the reproduction's determinism and kernel hygiene
instead of asserting them (``python -m repro analyze`` runs them all):

* ``lint`` (:mod:`.linter`, :mod:`.rules`) — AST rules: seeded RNG only,
  SimClock-only zones, explicit kernel dtypes, backend-routed
  contractions, no swallowed exceptions, hoisted kernel-loop buffers,
  pragmas that name real rules;
* ``detcheck`` — determinism taint (whole-program) over the dispatcher
  in :mod:`.walker`;
* ``hazards`` (:mod:`.hazards`) — records the per-row pipeline reads and
  writes the trainer reports on a logical clock and reports RAW/WAR hazards;
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
    HazardProbe,
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
from repro.analysis.rules import RULE_REGISTRY, Rule, RuleContext, register
from repro.analysis.sarif import result_to_sarif, results_to_sarif_bundle

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
    "HazardProbe",
    "HazardExperimentResult",
    "run_hazard_experiment",
    "DET_RULES",
    "detcheck_paths",
    "detcheck_source",
    "HAZARD_RULES",
    "hazard_findings",
    "result_to_sarif",
    "results_to_sarif_bundle",
]
