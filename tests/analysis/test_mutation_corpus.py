"""Shapecheck's share of the seeded corpus, under its original test ids.

The manifest (exact ``(rule_id, line)`` per file, clean twins included)
and the checks live in :mod:`tests.analysis.test_corpus`.
"""

import pytest

from tests.analysis.test_corpus import (
    MANIFEST,
    catalog_ids,
    corpus_files,
    exercised_rules,
    hits,
    mutants,
    whole_corpus_flags,
)

TOOL = "shapecheck"


def test_manifest_matches_corpus_directory():
    assert corpus_files(TOOL) == sorted(MANIFEST[TOOL])


def test_every_rule_is_exercised_by_some_mutation():
    # SHP001-SHP003 (einsum) are retired, not reused.
    assert exercised_rules(TOOL) == catalog_ids(TOOL) == {
        f"SHP{n:03d}" for n in range(4, 9)
    }


@pytest.mark.parametrize("stem", [rel[:-3] for rel in mutants(TOOL)])
def test_mutation_is_flagged_with_expected_rule(stem):
    assert hits(TOOL, f"{stem}.py") == MANIFEST[TOOL][f"{stem}.py"]


def test_whole_corpus_fails_the_gate():
    result, flagged = whole_corpus_flags(TOOL)
    assert not result.ok
    assert flagged == set(mutants(TOOL))
