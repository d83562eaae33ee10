"""The ``repro perfcheck`` runner and FusionPlan builder.

Mirrors the shapecheck/detcheck runner surface — same
:class:`Finding`/:class:`LintResult` records, pragma suppression, and
file discovery — on top of the perf interpreter in
:mod:`repro.analysis.perfcheck.interp`.

The interprocedural part reuses detcheck's
:func:`~repro.analysis.detcheck.callgraph.build_program`: chain kernels
like ``tt_chain_backward`` take their zone as a *parameter*
(``zone=ZONE_TT_BACKWARD``), so a caller passing
``zone=ZONE_EFFTT_BACKWARD`` runs the same body under a different zone.
:func:`build_fusion_plan` finds such call sites in the call graph and
re-interprets the callee's module with the caller's zone bound, merging
the resulting graphs into the FusionPlan — findings are only ever taken
from the base (declared-zone) runs, so rule output stays per-module and
deterministic.

Usage surfaces:

* CLI — ``python -m repro perfcheck [paths...] [--fusion-plan out.json]``;
* pytest — ``tests/analysis/test_perfcheck_self.py`` checks ``src/repro``
  ships clean and the FusionPlan covers the TT/Eff-TT zones;
* library — :func:`perfcheck_paths` / :func:`perfcheck_source` /
  :func:`build_fusion_plan`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..detcheck.callgraph import build_program
from ..linter import (
    LintResult,
    check_each_file,
    iter_python_files,
    package_rel,
    parse_pragmas,
    select_rules,
)
from ..rules import build_context
from .graph import Chain, OpNode, fusion_plan_json
from .interp import (
    PERF_RULES,
    PerfModuleResult,
    interpret_module_perf,
)

__all__ = [
    "perfcheck_paths",
    "perfcheck_source",
    "build_fusion_plan",
    "PERF_RULES",
]


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


def _zone_kwarg_name(value: ast.expr) -> Optional[str]:
    """The kernel-zone string a ``zone=ZONE_X`` call keyword names."""
    from ..shapecheck.interp import _ZONE_CONSTANTS

    if isinstance(value, ast.Name) and value.id in _ZONE_CONSTANTS:
        return _ZONE_CONSTANTS[value.id]
    if isinstance(value, ast.Attribute) and value.attr in _ZONE_CONSTANTS:
        return _ZONE_CONSTANTS[value.attr]
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        if value.value in _ZONE_CONSTANTS.values():
            return value.value
    return None


def build_fusion_plan(paths: Sequence[Path]) -> Dict[str, object]:
    """Interprocedural FusionPlan over every module under ``paths``.

    Base pass: each module is interpreted under its declared zones.
    Interprocedural pass: for every call-graph edge that passes
    ``zone=ZONE_X`` to a function whose zone is a parameter, the callee's
    module is re-interpreted with that zone bound, and only the graphs
    belonging to the propagated zone are merged in.
    """
    files: List[Tuple[Path, str, str]] = []
    for file_path in iter_python_files(paths):
        files.append(
            (file_path, package_rel(file_path), file_path.read_text(encoding="utf-8"))
        )

    all_nodes: List[OpNode] = []
    all_chains: List[Chain] = []
    module_results: Dict[str, PerfModuleResult] = {}
    for file_path, rel, source in files:
        try:
            ctx = build_context(file_path, rel, source)
        except SyntaxError:
            continue
        result = interpret_module_perf(ctx, collect_findings=False)
        module_results[rel] = result
        all_nodes.extend(result.nodes)
        all_chains.extend(result.chains)

    # Call-graph pass: find zone=ZONE_X keywords on resolved callees.
    overrides: Dict[Tuple[str, str, str], None] = {}
    try:
        program = build_program(files)
    except SyntaxError:
        program = None
    if program is not None:
        for fn in program.functions.values():
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                zone = None
                for keyword in call.keywords:
                    if keyword.arg == "zone":
                        zone = _zone_kwarg_name(keyword.value)
                if zone is None:
                    continue
                for callee in program.resolve_callees(fn, call):
                    if "zone" not in callee.params:
                        continue
                    overrides[(callee.module, callee.name, zone)] = None

        rel_by_module = {
            modname: info.ctx.rel for modname, info in program.modules.items()
        }
        source_by_rel = {rel: (file_path, source) for file_path, rel, source in files}
        for modname, fn_name, zone in overrides:
            rel = rel_by_module.get(modname)
            if rel is None or rel not in source_by_rel:
                continue
            file_path, source = source_by_rel[rel]
            try:
                ctx = build_context(file_path, rel, source)
            except SyntaxError:
                continue
            result = interpret_module_perf(
                ctx, zone_overrides={fn_name: zone}, collect_findings=False
            )
            # Only the propagated zone is new information; the module's
            # declared zones were already covered by the base pass.
            all_nodes.extend(n for n in result.nodes if n.zone == zone)
            all_chains.extend(c for c in result.chains if c.zone == zone)

    return fusion_plan_json(all_nodes, all_chains)
