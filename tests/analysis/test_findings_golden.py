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
  the aggregated backward became reverse mode, and nine lines back up
  when its depth-wise sum helper left for ``RowGroups.sum_rows``; the
  two DET rows that point at it were moved with it both times;
* ``ShardedParameterServer.state_arrays`` in ``sharding/server.py``
  moved nine lines down when the gather started grouping its ids with
  ``group_rows``, and its three rows (DET004, DET001 twice) moved with it;
* ``utils/scatter.py`` (no findings) left the file list when its sum
  moved into ``backend/groups.py``;
* the ``CompressedEmbedding`` protocol left: ``serving/server.py``'s
  DET004 row moved four lines up and the six
  ``test_compressed_protocol.py`` rows four lines down (with the
  "(line …)" in their messages);
* detcheck learned to resolve a package ``__init__``'s re-exports and
  to carry a callee's sink parameters on to its callers' summaries (an
  environment budget reaching ``ModelPlan`` through
  ``checks.planned_model``), which added one DET001 row:
  ``test_serialization.py`` hands ``capture_trainer_arrays``' output to
  ``CheckpointStore.save``, whose ``np.savez_compressed`` is a sink —
  48 DET rows.
"""

import json
from pathlib import Path

from tests.analysis.fixtures.make_findings_parent import ANALYZERS, run_analyzers

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "findings_parent.json").read_text()
)
#: Stored files deleted since: the einsum checker and its corpus, then
#: shapecheck and perfcheck with their corpora and tests, DET006's
#: corpus pair, and the scatter module whose sum moved into
#: ``backend/groups.py``.
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
    "src/repro/utils/scatter.py",
)


def test_golden_has_the_parent_counts():
    assert len(GOLDEN["files"]) == 311
    counts = {name: len(GOLDEN[name]["findings"]) for name in ANALYZERS}
    assert counts == {"lint": 1, "detcheck": 48}
    in_src = [row for row in GOLDEN["detcheck"]["findings"] if row[1].startswith("src/")]
    assert len(in_src) == 25
    assert {row[0] for row in in_src} == {"DET001", "DET004"}


def test_parent_findings_are_reproduced():
    files = [rel for rel in GOLDEN["files"] if (ROOT / rel).exists()]
    retired = set(GOLDEN["files"]) - set(files)
    assert len(retired) == 35 and all(rel.startswith(RETIRED) for rel in retired)
    now = run_analyzers(ROOT, files)
    for name in ANALYZERS:
        assert now[name] == GOLDEN[name], name
