"""The ``repro perfcheck`` runner.

Mirrors the shapecheck/detcheck runner surface — same
:class:`Finding`/:class:`LintResult` records, pragma suppression, and
file discovery — on top of the perf interpreter in
:mod:`repro.analysis.perfcheck.interp`.

Usage surfaces:

* CLI — ``python -m repro perfcheck [paths...]``;
* pytest — ``tests/analysis/test_perfcheck_self.py`` checks ``src/repro``
  ships clean;
* library — :func:`perfcheck_paths` / :func:`perfcheck_source`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from ..linter import (
    LintResult,
    check_each_file,
    package_rel,
    parse_pragmas,
    select_rules,
)
from ..rules import build_context
from .interp import PERF_RULES, interpret_module_perf

__all__ = ["perfcheck_paths", "perfcheck_source", "PERF_RULES"]


def perfcheck_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Perfcheck one in-memory module (unit-test entry point)."""
    result = LintResult(files_scanned=1)
    resolved_rel = rel if rel is not None else package_rel(Path(path))
    ctx = build_context(Path(path), resolved_rel, source)
    per_line, file_wide = parse_pragmas(source)
    selected = {rule.name for rule in select_rules(PERF_RULES, select, "perfcheck")}
    result.keep(
        (f for f in interpret_module_perf(ctx).findings if f.rule in selected),
        per_line,
        file_wide,
    )
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def perfcheck_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Perfcheck every ``.py`` file under ``paths``; aggregate."""
    return check_each_file(paths, perfcheck_source, "PERF000", select)
