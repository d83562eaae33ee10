"""The ``reprolint`` runner: file discovery, pragmas, formatting.

Usage surfaces:

* CLI — ``python -m repro lint [paths...]`` (exit 1 on error-level
  findings);
* pytest — ``tests/analysis/test_lint_self.py`` lints ``src/repro``
  itself and asserts the tree ships clean;
* library — :func:`lint_paths` for ad-hoc tooling.

Suppression pragmas (matched per physical line)::

    x = time.time()  # reprolint: disable=wall-clock
    # reprolint: disable-file=direct-numpy-in-kernel-zone   (anywhere: whole module)
    y = np.zeros(4)  # reprolint: disable=all

Rules are identified in pragmas by symbolic name (``wall-clock``) or
id (``REP002``); ``detcheck`` reads the same pragmas.  A pragma that
names no lint or detcheck rule is itself a finding (``REP008``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, TypeVar

from repro.analysis.findings import Finding, RuleMeta, Severity
from repro.analysis.rules import PRAGMA, RULE_REGISTRY, build_context

__all__ = [
    "LintResult",
    "lint_paths",
    "lint_source",
    "format_findings",
    "iter_python_files",
    "parse_pragmas",
    "is_suppressed",
    "package_rel",
    "select_rules",
    "syntax_error_finding",
]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Every finding: each rule reports at error severity."""
        return list(self.findings)

    @property
    def ok(self) -> bool:
        """True when no error-level findings survived pragmas."""
        return not self.errors

    def keep(
        self,
        findings: Iterable[Finding],
        per_line: Dict[int, Set[str]],
        file_wide: Set[str],
    ) -> None:
        """Add ``findings``, counting (not keeping) the pragma-suppressed ones."""
        for finding in findings:
            if is_suppressed(finding, per_line.get(finding.line, set()) | file_wide):
                self.suppressed += 1
            else:
                self.findings.append(finding)

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_scanned": self.files_scanned,
                "suppressed": self.suppressed,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def parse_pragmas(source: str) -> "tuple[Dict[int, Set[str]], Set[str]]":
    """Extract per-line and file-wide suppression sets from pragmas."""
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = PRAGMA.search(line)
        if not match:
            continue
        names = {part.strip() for part in match.group(2).split(",") if part.strip()}
        if match.group(1) == "disable-file":
            file_wide |= names
        else:
            per_line.setdefault(lineno, set()).update(names)
    return per_line, file_wide


def is_suppressed(finding: Finding, names: Set[str]) -> bool:
    return bool(names & {finding.rule, finding.rule_id, "all"})


def package_rel(path: Path) -> str:
    """Posix path rooted at the innermost ``repro`` package directory.

    Files outside any ``repro`` directory keep their file name, which
    places them in no lint zone (zone rules skip them).
    """
    parts = path.resolve().parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return path.name


R = TypeVar("R", bound=RuleMeta)


def select_rules(
    registry: Mapping[str, R], select: Optional[Sequence[str]], tool: str = ""
) -> List[R]:
    """The registry's rules matching ``select`` by symbolic name or id.

    ``None`` selects every rule.  ``tool`` only labels the error (the
    ``KeyError`` a CLI turns into exit 2) for an unknown name.
    """
    if select is None:
        return list(registry.values())
    rules: List[R] = []
    for name in select:
        matches = [rule for rule in registry.values() if name in (rule.name, rule.id)]
        if not matches:
            raise KeyError(
                f"unknown {tool + ' ' if tool else ''}rule {name!r}; known: "
                f"{sorted(registry)}"
            )
        rules.extend(matches)
    return rules


def lint_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint one in-memory module (unit-test and tooling entry point).

    ``rel`` positions the module for zone checks (default: the path's
    package-relative form); ``select`` keeps the named rules; pragmas
    suppress.
    """
    result = LintResult(files_scanned=1)
    resolved_rel = rel if rel is not None else package_rel(Path(path))
    ctx = build_context(Path(path), resolved_rel, source)
    per_line, file_wide = parse_pragmas(source)
    selected = {rule.name: rule for rule in select_rules(RULE_REGISTRY, select)}
    result.keep(
        (f for rule in selected.values() for f in rule.check(ctx)), per_line, file_wide
    )
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def syntax_error_finding(rule_id: str, path: Path, exc: SyntaxError) -> Finding:
    """What every analyzer reports (as its ``XXX000``) for an unparseable file."""
    return Finding(
        rule="syntax-error",
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=str(path),
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"file does not parse: {exc.msg}",
    )


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``; aggregate the results."""
    total = LintResult()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        try:
            single = lint_source(
                source, path=str(file_path), rel=package_rel(file_path), select=select
            )
        except SyntaxError as exc:
            total.findings.append(syntax_error_finding("REP000", file_path, exc))
            total.files_scanned += 1
            continue
        total.files_scanned += single.files_scanned
        total.suppressed += single.suppressed
        total.findings.extend(single.findings)
    total.findings.sort(key=lambda f: f.sort_key)
    return total


def format_findings(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in result.findings]
    lines.append(
        f"{result.files_scanned} file(s) scanned: "
        f"{len(result.errors)} error(s), "
        f"{result.suppressed} suppressed"
    )
    return "\n".join(lines)
