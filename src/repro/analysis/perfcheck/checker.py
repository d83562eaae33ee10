"""The ``perfcheck`` runner: the perf domain over the linter's surface.

Same :class:`Finding`/:class:`LintResult` records, ``# reprolint:
disable=`` pragmas and file discovery as ``lint``; used by ``python -m
repro perfcheck`` and ``tests/analysis/test_perfcheck_self.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from ..linter import LintResult, check_each_file, check_module
from .interp import PERF_RULES, interpret_module_perf

__all__ = ["perfcheck_paths", "perfcheck_source", "PERF_RULES"]


def perfcheck_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Perfcheck one in-memory module (unit-test entry point)."""
    return check_module(
        source, path, rel, select, PERF_RULES, "perfcheck",
        lambda ctx: interpret_module_perf(ctx).findings,
    )


def perfcheck_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Perfcheck every ``.py`` file under ``paths``; aggregate."""
    return check_each_file(paths, perfcheck_source, "PERF000", select)
