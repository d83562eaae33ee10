"""Determinism corpus: every DET rule must catch its seeded mutant.

``tests/analysis/corpus/det/`` pairs each ``mut_*`` file (one seeded
non-determinism, docstring explains it) with a ``clean_*`` twin that
performs the same computation canonically.  Zone-scoped rules (DET004,
DET005) live under ``det/repro/<zone>/`` so :func:`package_rel`
resolves them into the lint zone they target.  The manifest below pins
the exact rule id *and* line of every expected hit: a detcheck change
that moves, drops, or duplicates a finding fails here.
"""

from pathlib import Path

import pytest

from repro.analysis.detcheck import detcheck_paths

CORPUS = Path(__file__).resolve().parent / "corpus" / "det"

# relative path -> exact (rule_id, line) hits, in sort order
EXPECTED = {
    "mut_det001_tainted_state.py": [("DET001", 11), ("DET001", 12)],
    # interprocedural: the taint meets the ModelPlan sink in the callee
    "mut_det001_tainted_plan.py": [("DET001", 28)],
    "mut_det002_unordered_accum.py": [("DET002", 9)],
    "mut_det003_unordered_payload.py": [("DET003", 11)],
    "mut_det006_queue_mutation.py": [("DET006", 10)],
    "repro/system/mut_det004_entropy_escape.py": [("DET004", 11)],
    "repro/serving/mut_det005_wall_clock.py": [("DET005", 9)],
}

CLEAN_TWINS = [
    "clean_det001_seeded_state.py",
    "clean_det001_configured_plan.py",
    "clean_det002_sorted_accum.py",
    "clean_det003_sorted_payload.py",
    "clean_det006_queue_copy.py",
    "repro/system/clean_det004_seeded.py",
    "repro/serving/clean_det005_simclock.py",
]


def test_manifest_matches_corpus_directory():
    mutants = sorted(
        str(p.relative_to(CORPUS)) for p in CORPUS.rglob("mut_*.py")
    )
    assert mutants == sorted(EXPECTED), "mutants and manifest diverged"
    twins = sorted(
        str(p.relative_to(CORPUS)) for p in CORPUS.rglob("clean_*.py")
    )
    assert twins == sorted(CLEAN_TWINS), "clean twins and manifest diverged"
    assert len(mutants) >= 6, "ISSUE requires at least 6 seeded mutants"


def test_every_det_rule_is_exercised():
    fired = {rule_id for hits in EXPECTED.values() for rule_id, _ in hits}
    assert fired == {f"DET{n:03d}" for n in range(1, 7)}


@pytest.mark.parametrize("rel", sorted(EXPECTED))
def test_mutant_is_flagged_at_exact_line(rel):
    result = detcheck_paths([CORPUS / rel])
    hits = [(f.rule_id, f.line) for f in result.findings]
    assert hits == EXPECTED[rel], (
        f"{rel}: expected {EXPECTED[rel]}, got {hits or 'no findings'}"
    )


@pytest.mark.parametrize("rel", sorted(CLEAN_TWINS))
def test_clean_twin_has_zero_findings(rel):
    result = detcheck_paths([CORPUS / rel])
    formatted = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"false positives on {rel}:\n{formatted}"


def test_whole_det_corpus_fails_the_gate():
    result = detcheck_paths([CORPUS])
    assert not result.ok
    assert result.files_scanned == len(EXPECTED) + len(CLEAN_TWINS)
    flagged = {
        str(Path(f.path).resolve().relative_to(CORPUS))
        for f in result.findings
    }
    # Mutants all flagged, clean twins never — even analyzed together
    # as one program (name-merge must not bleed taint across twins).
    assert flagged == set(EXPECTED)
