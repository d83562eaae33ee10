"""The analyzers still report what they reported before sharing a walker.

``fixtures/findings_parent.json`` was written by
``fixtures/make_findings_parent.py`` at the commit before shapecheck,
perfcheck and detcheck moved onto :mod:`repro.analysis.walker`: every
finding of the three over the 315 files of ``src/repro``, ``tests`` and
``benchmarks`` at that commit (16 SHP, 5 PERF + 3 suppressed, 48 DET —
25 of the DET hits are in ``src/`` and appear only when the tests join
the whole-program pass, through name-merge call resolution).  This test
re-runs the stored file list and requires the same
``(rule_id, path, line, col, message)`` rows and suppressed counts,
except what left on purpose: SHP001-SHP003 with the three ``einsum``
corpus files that seeded them, and the einsum module itself.  The
fixture listed 315 files; four deleted modules that had no findings
(the torch backend, the pipeline Chrome-trace exporter and its tests,
and the hazard detector's recording queue/cache module) have since been
taken off its list by hand.
"""

import json
from pathlib import Path

from tests.analysis.fixtures.make_findings_parent import ANALYZERS, run_analyzers

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "findings_parent.json").read_text()
)
RETIRED_RULES = {"SHP001", "SHP002", "SHP003"}
RETIRED_FILES = {
    "src/repro/analysis/shapecheck/einsum.py",
    "tests/analysis/corpus/mut_einsum_arity.py",
    "tests/analysis/corpus/mut_einsum_dropped_dim.py",
    "tests/analysis/corpus/mut_einsum_transposed.py",
}


def test_golden_has_the_parent_counts():
    assert len(GOLDEN["files"]) == 311
    counts = {name: len(GOLDEN[name]["findings"]) for name in ANALYZERS}
    assert counts == {"shapecheck": 16, "perfcheck": 5, "detcheck": 48}
    assert GOLDEN["perfcheck"]["suppressed"] == 3
    in_src = [row for row in GOLDEN["detcheck"]["findings"] if row[1].startswith("src/")]
    assert len(in_src) == 25
    assert {row[0] for row in in_src} == {"DET001", "DET004"}


def test_parent_findings_are_reproduced():
    files = [rel for rel in GOLDEN["files"] if (ROOT / rel).exists()]
    assert set(GOLDEN["files"]) - set(files) == RETIRED_FILES
    now = run_analyzers(ROOT, files)
    for name in ANALYZERS:
        expected = [
            row for row in GOLDEN[name]["findings"] if row[0] not in RETIRED_RULES
        ]
        assert now[name]["findings"] == expected, name
        assert now[name]["suppressed"] == GOLDEN[name]["suppressed"], name
    dropped = [row for row in GOLDEN["shapecheck"]["findings"] if row[0] in RETIRED_RULES]
    assert sorted(row[0] for row in dropped) == sorted(RETIRED_RULES)
