"""SARIF 2.1.0 serialization for lint/detcheck/hazards results.

Emits the minimal static-analysis-results interchange format that CI
systems (GitHub code scanning, Azure DevOps) ingest: one ``run`` with a
tool descriptor, a rule catalog, and one ``result`` per finding.
:func:`results_to_sarif_bundle` merges several tools into a single
document with one run per tool — the ``repro analyze --format sarif``
output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.findings import Finding, RuleMeta
from repro.analysis.linter import LintResult

__all__ = ["result_to_sarif", "results_to_sarif_bundle"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_descriptor(rule: RuleMeta) -> Dict[str, Any]:
    return {
        "id": rule.id,
        "name": rule.name,
        "shortDescription": {"text": rule.description},
        "defaultConfiguration": {"level": rule.severity.label},
    }


def _result(finding: Finding, rule_ids: List[str]) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": finding.severity.label,
        "message": {
            "text": finding.message
            + (f" (fix: {finding.hint})" if finding.hint else "")
        },
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }
    if finding.rule_id in rule_ids:
        entry["ruleIndex"] = rule_ids.index(finding.rule_id)
    return entry


def _run(
    result: LintResult,
    tool_name: str,
    rules: Iterable[RuleMeta],
) -> Dict[str, Any]:
    descriptors = [_rule_descriptor(rule) for rule in rules]
    rule_ids = [desc["id"] for desc in descriptors]
    return {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": "https://example.invalid/repro",
                "rules": descriptors,
            }
        },
        "results": [_result(finding, rule_ids) for finding in result.findings],
    }


def result_to_sarif(
    result: LintResult,
    tool_name: str,
    rules: Iterable[RuleMeta],
) -> str:
    """Serialize one :class:`LintResult` as a SARIF 2.1.0 document."""
    return results_to_sarif_bundle([(result, tool_name, rules)])


def results_to_sarif_bundle(
    runs: Sequence[Tuple[LintResult, str, Iterable[RuleMeta]]],
) -> str:
    """Serialize several tools' results as one SARIF document.

    Each ``(result, tool_name, rules)`` triple becomes its own ``run``
    with its own tool descriptor and rule catalog, so a CI viewer can
    attribute every finding to the analyzer that produced it while
    ingesting a single artifact.
    """
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [_run(result, name, rules) for result, name, rules in runs],
    }
    return json.dumps(document, indent=2)
