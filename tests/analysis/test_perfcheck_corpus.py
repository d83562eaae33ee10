"""Performance corpus: every PERF rule must catch its seeded mutant.

``tests/analysis/corpus/perf/`` pairs each ``mut_*`` file (one seeded
performance defect, docstring explains it) with a ``clean_*`` twin that
performs the same computation efficiently.  All files live under
``perf/repro/embeddings/`` so :func:`package_rel` resolves them into a
kernel zone — the path gate for the syntactic rules.  The manifest pins
the exact rule id *and* line of every expected hit: a perfcheck change
that moves, drops, or duplicates a finding fails here.
"""

from pathlib import Path

import pytest

from repro.analysis.perfcheck import perfcheck_paths

CORPUS = Path(__file__).resolve().parent / "corpus" / "perf"
ZONE_DIR = "repro/embeddings"

# relative path -> exact (rule_id, line) hits, in sort order
EXPECTED = {
    f"{ZONE_DIR}/mut_perf001_hot_loop_alloc.py": [("PERF001", 14)],
    f"{ZONE_DIR}/mut_perf003_layout_churn.py": [("PERF003", 7)],
    f"{ZONE_DIR}/mut_perf005_batch_python_loop.py": [("PERF005", 13)],
    f"{ZONE_DIR}/mut_perf006_redundant_gather.py": [("PERF006", 13)],
    f"{ZONE_DIR}/mut_perf007_dtype_churn.py": [("PERF007", 13)],
}

CLEAN_TWINS = [
    f"{ZONE_DIR}/clean_perf001_loop_variant_alloc.py",
    f"{ZONE_DIR}/clean_perf003_reshape_first.py",
    f"{ZONE_DIR}/clean_perf005_batched_op.py",
    f"{ZONE_DIR}/clean_perf006_write_between.py",
    f"{ZONE_DIR}/clean_perf007_real_cast.py",
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


def test_every_perf_rule_is_exercised():
    fired = {rule_id for hits in EXPECTED.values() for rule_id, _ in hits}
    # Retired ids: 002 (the unfused-contraction advisory) and 004
    # (plan-cache-bypass, gone with the backend's einsum op).
    assert fired == {f"PERF{n:03d}" for n in (1, 3, 5, 6, 7)}


@pytest.mark.parametrize("rel", sorted(EXPECTED))
def test_mutant_is_flagged_at_exact_line(rel):
    result = perfcheck_paths([CORPUS / rel])
    hits = [(f.rule_id, f.line) for f in result.findings]
    assert hits == EXPECTED[rel], (
        f"{rel}: expected {EXPECTED[rel]}, got {hits or 'no findings'}"
    )


@pytest.mark.parametrize("rel", sorted(CLEAN_TWINS))
def test_clean_twin_has_zero_findings(rel):
    result = perfcheck_paths([CORPUS / rel])
    formatted = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"false positives on {rel}:\n{formatted}"


def test_whole_perf_corpus_fails_the_gate():
    # Every mutant is error-level; the corpus as a whole must fail the gate.
    result = perfcheck_paths([CORPUS])
    assert not result.ok
    assert result.files_scanned == len(EXPECTED) + len(CLEAN_TWINS)
    flagged = {
        str(Path(f.path).resolve().relative_to(CORPUS))
        for f in result.findings
    }
    assert flagged == set(EXPECTED), "findings outside the manifest"
