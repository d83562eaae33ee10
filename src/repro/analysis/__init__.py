"""Correctness tooling: the ``reprolint`` linter + pipeline hazard detector.

Two prongs, one goal — make the reproduction's determinism and
read-after-write safety *machine-checked* instead of asserted:

* :mod:`repro.analysis.linter` / :mod:`repro.analysis.rules` — an
  AST-based lint pass with repo-specific rules (seeded RNG only,
  SimClock-only zones, explicit kernel dtypes, batch-loop perf
  advisories).  Run it with ``python -m repro lint src/repro``.
* :mod:`repro.analysis.hazards` / :mod:`repro.analysis.shims` — an
  event-recording shim over the pipelined PS trainer that logs
  per-embedding-row reads/writes with simulated timestamps and detects
  RAW/WAR hazards; ``python -m repro hazards --inject`` demonstrates
  the §V raw conflict being caught.
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
