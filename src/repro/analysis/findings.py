"""Structured lint findings.

``reprolint`` rules emit :class:`Finding` records rather than printing:
the CLI formats them for humans, the pytest self-check asserts on them,
and the JSON output mode serializes them for CI annotation.  Every
analyzer describes its rules with :class:`RuleInfo` records and builds
its findings with :func:`finding`.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Any, Dict, Protocol, Tuple

__all__ = ["Severity", "Finding", "RuleMeta", "RuleInfo", "rule_catalog", "finding"]


class Severity(enum.IntEnum):
    """Finding severity.  Every rule reports errors, and any error fails
    the run (exit 1); the label is also the SARIF ``level``."""

    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class RuleMeta(Protocol):
    """What the shared machinery (rule selection, the SARIF catalog) needs
    from a rule; satisfied by lint ``Rule`` objects and by
    :class:`RuleInfo` records."""

    id: str
    name: str
    severity: Severity
    description: str


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one analyzer rule (the lint ``Rule`` fields)."""

    id: str
    name: str
    severity: Severity
    description: str


def rule_catalog(*rules: RuleInfo) -> Dict[str, RuleInfo]:
    """An analyzer's rule table, keyed by symbolic name."""
    return {rule.name: rule for rule in rules}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic anchored to a source location.

    Attributes
    ----------
    rule:
        Symbolic rule name (``unseeded-rng``), used in
        ``# reprolint: disable=`` pragmas.
    rule_id:
        Stable short id (``REP001``).
    severity:
        :class:`Severity` of the diagnostic.
    path:
        Path of the offending file as scanned.
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        What is wrong.
    hint:
        How to fix it (one line, actionable).
    """

    rule: str
    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: SEVERITY rule message  [hint]`` one-liner."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.label} [{self.rule_id}/{self.rule}] {self.message}"
        )
        if self.hint:
            text += f"  (fix: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["severity"] = self.severity.label
        return data

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


def finding(
    rule: RuleMeta, path: str, where: Any, message: str, hint: str = ""
) -> Finding:
    """A ``rule`` finding at ``where``: an AST node (its ``lineno`` /
    ``col_offset``, 1 / 0 when it has none) or a ``(line, col)`` pair."""
    if isinstance(where, tuple):
        line, col = where
    else:
        line, col = getattr(where, "lineno", 1), getattr(where, "col_offset", 0)
    return Finding(
        rule=rule.name,
        rule_id=rule.id,
        severity=rule.severity,
        path=path,
        line=line,
        col=col,
        message=message,
        hint=hint,
    )
