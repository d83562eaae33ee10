"""Writer of ``findings_parent.json``: what the three analyzers reported
on this repository's own files before they shared one walker.

Ran once at commit e0e2098, the parent of the change that moved
shapecheck, perfcheck and detcheck onto :mod:`repro.analysis.walker`,
against a checkout of that commit:

    PYTHONPATH=<parent>/src python make_findings_parent.py <parent> findings_parent.json

It lists every ``.py`` file under ``src/repro``, ``tests`` and
``benchmarks`` of the checkout (sorted, root-relative), runs
``shapecheck_paths``, ``perfcheck_paths`` and ``detcheck_paths`` over
that list (detcheck as one whole program) and dumps each analyzer's
``[rule_id, path, line, col, message]`` rows and suppressed count.
``tests/analysis/test_findings_golden.py`` re-runs the stored list
through :func:`run_analyzers` and compares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOTS = ("src/repro", "tests", "benchmarks")
ANALYZERS = ("shapecheck", "perfcheck", "detcheck")


def list_files(root: Path) -> List[str]:
    """Root-relative posix paths of every ``.py`` file under :data:`ROOTS`."""
    return sorted(
        path.relative_to(root).as_posix()
        for top in ROOTS
        for path in (root / top).rglob("*.py")
    )


def run_analyzers(root: Path, files: List[str]) -> Dict[str, Any]:
    """``{analyzer: {"suppressed": n, "findings": [[id, path, line, col, msg]]}}``."""
    from repro.analysis import detcheck_paths, perfcheck_paths, shapecheck_paths

    runners = {
        "shapecheck": shapecheck_paths,
        "perfcheck": perfcheck_paths,
        "detcheck": detcheck_paths,
    }
    paths = [root / rel for rel in files]
    out: Dict[str, Any] = {}
    for name in ANALYZERS:
        result = runners[name](paths)
        out[name] = {
            "suppressed": result.suppressed,
            "findings": [
                [f.rule_id, Path(f.path).relative_to(root).as_posix(), f.line,
                 f.col, f.message]
                for f in result.findings
            ],
        }
    return out


def main(root_arg: str, out_path: str) -> None:
    root = Path(root_arg).resolve()
    files = list_files(root)
    results = run_analyzers(root, files)
    sections = ['"files": [\n' + ",\n".join(json.dumps(rel) for rel in files) + "\n]"]
    for name in ANALYZERS:
        rows = ",\n".join(json.dumps(row) for row in results[name]["findings"])
        sections.append(
            f'"{name}": {{"suppressed": {results[name]["suppressed"]}, '
            f'"findings": [\n{rows}\n]}}'
        )
    with open(out_path, "w") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
