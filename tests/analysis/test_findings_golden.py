"""The analyzers still report what they reported before sharing a walker.

``fixtures/findings_parent.json`` was written by
``fixtures/make_findings_parent.py`` at the commit before shapecheck,
perfcheck and detcheck moved onto :mod:`repro.analysis.walker`: every
finding of the three over the 315 files of ``src/repro``, ``tests`` and
``benchmarks`` at that commit (48 DET — 25 of them in ``src/``, which
appear only when the tests join the whole-program pass, through
name-merge call resolution).  This test re-runs the stored file list
and requires the same ``(rule_id, path, line, col, message)`` rows and
suppressed counts.

What left on purpose, by hand:

* four deleted modules that had no findings (the torch backend, the
  pipeline Chrome-trace exporter and its tests, and the hazard
  detector's recording queue/cache module) left the file list;
* the rule audit (DESIGN.md §7.4) retired shapecheck and perfcheck
  with their rows and their ``SHP``/``PERF`` corpora, except PERF001 ``hot-loop-alloc``, which
  became the lint rule ``REP007``: its one row, its corpus mutant and
  the mutant's clean twin were re-keyed to the rule, the moved files and
  the lint rule's message (``lint`` runs it alone);
* the same audit retired DET006 ``queue-seam-mutation``: its one row
  (its corpus mutant) left with it, so 47 DET rows remain;
* ``state_arrays`` in ``eff_tt_embedding.py`` moved nine lines down when
  the aggregated backward became reverse mode, and the two DET rows that
  point at it were moved with it.
"""

import json
from pathlib import Path

from tests.analysis.fixtures.make_findings_parent import ANALYZERS, run_analyzers

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "findings_parent.json").read_text()
)
#: Stored files deleted since: the einsum checker and its corpus, then
#: shapecheck and perfcheck with their corpora and tests, and DET006's
#: corpus pair.
RETIRED = (
    "src/repro/analysis/shapecheck/",
    "src/repro/analysis/perfcheck/",
    "tests/analysis/corpus/mut_",
    "tests/analysis/corpus/perf/",
    "tests/analysis/corpus/det/mut_det006_",
    "tests/analysis/corpus/det/clean_det006_",
    "tests/analysis/test_shapecheck",
    "tests/analysis/test_perfcheck",
    "tests/analysis/test_mutation_corpus.py",
)


def test_golden_has_the_parent_counts():
    assert len(GOLDEN["files"]) == 311
    counts = {name: len(GOLDEN[name]["findings"]) for name in ANALYZERS}
    assert counts == {"lint": 1, "detcheck": 47}
    in_src = [row for row in GOLDEN["detcheck"]["findings"] if row[1].startswith("src/")]
    assert len(in_src) == 25
    assert {row[0] for row in in_src} == {"DET001", "DET004"}


def test_parent_findings_are_reproduced():
    files = [rel for rel in GOLDEN["files"] if (ROOT / rel).exists()]
    retired = set(GOLDEN["files"]) - set(files)
    assert len(retired) == 34 and all(rel.startswith(RETIRED) for rel in retired)
    now = run_analyzers(ROOT, files)
    for name in ANALYZERS:
        assert now[name] == GOLDEN[name], name
