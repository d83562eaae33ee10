"""The ``shapecheck`` runner: the shape domain over the linter's surface.

Same :class:`Finding`/:class:`LintResult` records, ``# reprolint:
disable=`` pragmas and file discovery as ``lint``; used by ``python -m
repro shapecheck`` and ``tests/analysis/test_shapecheck_self.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.linter import LintResult, check_each_file, check_module
from repro.analysis.shapecheck.interp import SHAPE_RULES, interpret_module

__all__ = ["shapecheck_paths", "shapecheck_source", "SHAPE_RULES"]


def shapecheck_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Shapecheck one in-memory module (unit-test entry point)."""
    return check_module(
        source, path, rel, select, SHAPE_RULES, "shapecheck", interpret_module
    )


def shapecheck_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Shapecheck every ``.py`` file under ``paths``; aggregate."""
    return check_each_file(paths, shapecheck_source, "SHP000", select)
