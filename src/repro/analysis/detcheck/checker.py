"""The ``detcheck`` runner: the linter's surface over a whole program.

Same :class:`Finding`/:class:`LintResult` records, ``# reprolint:
disable=`` pragmas and file discovery as ``lint``, but every file handed
to one run is parsed into a single :class:`~.callgraph.Program`, function
summaries are computed bottom-up over the call graph, and only then are
per-file findings reported.  That is what lets DET004 fire at a call
site in ``system/`` when the entropy RNG is minted three calls away in a
helper module.  Used by ``python -m repro detcheck`` and
``tests/analysis/test_detcheck_self.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.detcheck.callgraph import Program, build_program
from repro.analysis.detcheck.catalog import DET_RULES
from repro.analysis.detcheck.interp import compute_summaries, module_findings
from repro.analysis.linter import (
    LintResult,
    iter_python_files,
    package_rel,
    parse_pragmas,
    select_rules,
    syntax_error_finding,
)

__all__ = ["detcheck_paths", "detcheck_source", "DET_RULES"]


def _analyze(
    files: List[Tuple[Path, str, str]],
    select: Optional[Sequence[str]],
    result: LintResult,
) -> None:
    """Whole-program pass over pre-parsed files, appending to result."""
    if not files:
        return
    program: Program = build_program(files)
    summaries, module_envs = compute_summaries(program)
    selected = {rule.name for rule in select_rules(DET_RULES, select, "detcheck")}
    for modname, module in program.modules.items():
        per_line, file_wide = parse_pragmas(module.ctx.source)
        findings = module_findings(program, modname, summaries, module_envs)
        result.keep((f for f in findings if f.rule in selected), per_line, file_wide)


def detcheck_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Detcheck one in-memory module (unit-test entry point).

    The program is just this module, so interprocedural facts resolve
    against its own helpers only.
    """
    result = LintResult(files_scanned=1)
    resolved_rel = rel if rel is not None else package_rel(Path(path))
    _analyze([(Path(path), resolved_rel, source)], select, result)
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def detcheck_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Detcheck every ``.py`` file under ``paths`` as one program."""
    result = LintResult()
    files: List[Tuple[Path, str, str]] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        result.files_scanned += 1
        try:
            compile(source, str(file_path), "exec", dont_inherit=True)
        except SyntaxError as exc:
            result.findings.append(syntax_error_finding("DET000", file_path, exc))
            continue
        files.append((file_path, package_rel(file_path), source))
    _analyze(files, select, result)
    result.findings.sort(key=lambda f: f.sort_key)
    return result
