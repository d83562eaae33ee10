"""The ``shapecheck`` runner.

Mirrors the :mod:`repro.analysis.linter` surface so diagnostics are
uniform across both tools: the same :class:`Finding`/:class:`LintResult`
records, the same ``# reprolint: disable=`` pragma suppression, the same
file discovery.  The actual checking is the abstract interpreter in
:mod:`repro.analysis.shapecheck.interp`.

Usage surfaces:

* CLI — ``python -m repro shapecheck [paths...]`` (exit 1 on errors);
* pytest — ``tests/analysis/test_shapecheck_self.py`` checks
  ``src/repro`` ships clean while the seeded-mutation corpus is caught;
* library — :func:`shapecheck_paths` / :func:`shapecheck_source`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.linter import (
    LintResult,
    check_each_file,
    package_rel,
    parse_pragmas,
    select_rules,
)
from repro.analysis.rules import build_context
from repro.analysis.shapecheck.interp import (
    SHAPE_RULES,
    interpret_module,
)

__all__ = ["shapecheck_paths", "shapecheck_source", "SHAPE_RULES"]


def shapecheck_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Shapecheck one in-memory module (unit-test entry point)."""
    result = LintResult(files_scanned=1)
    resolved_rel = rel if rel is not None else package_rel(Path(path))
    ctx = build_context(Path(path), resolved_rel, source)
    per_line, file_wide = parse_pragmas(source)
    selected = {rule.name for rule in select_rules(SHAPE_RULES, select, "shapecheck")}
    result.keep(
        (f for f in interpret_module(ctx) if f.rule in selected), per_line, file_wide
    )
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def shapecheck_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Shapecheck every ``.py`` file under ``paths``; aggregate."""
    return check_each_file(paths, shapecheck_source, "SHP000", select)
