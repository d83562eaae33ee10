"""Perfcheck's share of the seeded corpus, under its original test ids.

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
    twins,
    whole_corpus_flags,
)

TOOL = "perfcheck"


def test_manifest_matches_corpus_directory():
    assert corpus_files(TOOL) == sorted(MANIFEST[TOOL])


def test_every_perf_rule_is_exercised():
    assert exercised_rules(TOOL) == catalog_ids(TOOL)


@pytest.mark.parametrize("rel", mutants(TOOL))
def test_mutant_is_flagged_at_exact_line(rel):
    assert hits(TOOL, rel) == MANIFEST[TOOL][rel]


@pytest.mark.parametrize("rel", twins(TOOL))
def test_clean_twin_has_zero_findings(rel):
    assert hits(TOOL, rel) == []


def test_whole_perf_corpus_fails_the_gate():
    result, flagged = whole_corpus_flags(TOOL)
    assert not result.ok
    assert flagged == set(mutants(TOOL))
