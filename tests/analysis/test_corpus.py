"""The seeded corpora of both analyzers, pinned by one manifest.

``tests/analysis/corpus/`` holds one corpus per analyzer: ``det/`` for
detcheck and ``lint/`` for reprolint.
Each ``mut_*`` file seeds one defect (its docstring explains it) and
each ``clean_*`` twin does the same computation correctly.  Zone-scoped
files live under ``<corpus>/repro/<zone>/`` so :func:`package_rel`
resolves them into the lint zone they target.

:data:`MANIFEST` pins every file to its exact ``(rule_id, line)`` hits —
``[]`` for a clean twin — so a checker change that moves, drops or
duplicates a finding fails here, and so does a twin that gains one.
Each corpus is also checked as a whole (detcheck: as one program, so
name-merge must not bleed taint from a mutant into its twin).
"""

from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis import DET_RULES, RULE_REGISTRY, detcheck_paths, lint_paths

CORPUS = Path(__file__).resolve().parent / "corpus"

#: analyzer -> (corpus directory, runner, rule catalog)
ANALYZERS = {
    "detcheck": (CORPUS / "det", detcheck_paths, DET_RULES),
    "lint": (CORPUS / "lint", lint_paths, RULE_REGISTRY),
}

#: analyzer -> corpus-relative path -> exact (rule_id, line) hits, in order
MANIFEST: Dict[str, Dict[str, List[Tuple[str, int]]]] = {
    "detcheck": {
        "mut_det001_tainted_state.py": [("DET001", 11), ("DET001", 12)],
        # interprocedural: the taint meets the ModelPlan sink in the callee
        "mut_det001_tainted_plan.py": [("DET001", 28)],
        # a closure: the pipelined trainer's drain_one shape
        "mut_det001_closure_apply.py": [("DET001", 10)],
        # a closure reading a tainted local of its enclosing function
        "mut_det001_closure_free_var.py": [("DET001", 12)],
        # DESIGN §7.4 DET001 a: two calls down to the planner's sink
        "mut_det001_budget_two_hops.py": [("DET001", 58)],
        # DESIGN §7.4 DET001 b: the helper reads the budget itself
        "mut_det001_budget_read_in_helper.py": [("DET001", 50)],
        "mut_det002_unordered_accum.py": [("DET002", 9)],
        "mut_det003_unordered_payload.py": [("DET003", 11)],
        "repro/system/mut_det004_entropy_escape.py": [("DET004", 11)],
        "repro/serving/mut_det005_wall_clock.py": [("DET005", 9)],
        "clean_det001_seeded_state.py": [],
        "clean_det001_configured_plan.py": [],
        "clean_det001_closure_apply.py": [],
        "clean_det001_closure_free_var.py": [],
        "clean_det001_budget_two_hops.py": [],
        "clean_det001_budget_read_in_helper.py": [],
        "clean_det002_sorted_accum.py": [],
        "clean_det003_sorted_payload.py": [],
        "repro/system/clean_det004_seeded.py": [],
        "repro/serving/clean_det005_simclock.py": [],
    },
    "lint": {
        "repro/data/mut_rep001_unseeded_rng.py": [("REP001", 5)],
        "repro/system/mut_rep002_wall_clock.py": [("REP002", 7)],
        "repro/nn/mut_rep003_implicit_zeros.py": [("REP003", 7)],
        # dtype=np.float64, .astype(np.float64), np.asarray(.., dtype=np.float64)
        "repro/models/mut_rep003_hard_coded_float64.py": [
            ("REP003", 7), ("REP003", 11), ("REP003", 15),
        ],
        "repro/embeddings/mut_rep005_direct_matmul.py": [("REP005", 7)],
        "repro/serving/mut_rep006_silent_except.py": [("REP006", 7)],
        "repro/embeddings/mut_rep007_hot_loop_alloc.py": [("REP007", 14)],
        "repro/embeddings/mut_rep008_stale_pragma.py": [("REP008", 8)],
        # the model's dtype, and a pragma'd float64 that says why
        "repro/models/clean_rep003_model_dtype.py": [],
        "repro/embeddings/clean_rep007_loop_variant_alloc.py": [],
        # pragmas by name, by id, of detcheck, and `all`
        "repro/embeddings/clean_rep008_known_pragma.py": [],
    },
}

CASES = [(tool, rel) for tool in MANIFEST for rel in sorted(MANIFEST[tool])]


def corpus_files(tool: str) -> List[str]:
    """The ``.py`` files of ``tool``'s corpus, corpus-relative."""
    root = ANALYZERS[tool][0]
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.py"))


def mutants(tool: str) -> List[str]:
    return sorted(rel for rel, hits in MANIFEST[tool].items() if hits)


def twins(tool: str) -> List[str]:
    return sorted(rel for rel, hits in MANIFEST[tool].items() if not hits)


def hits(tool: str, rel: str) -> List[Tuple[str, int]]:
    """``(rule_id, line)`` of every finding ``tool`` reports on one file."""
    root, run, _ = ANALYZERS[tool]
    return [(f.rule_id, f.line) for f in run([root / rel]).findings]


def exercised_rules(tool: str) -> set:
    return {rule_id for hits_ in MANIFEST[tool].values() for rule_id, _ in hits_}


def catalog_ids(tool: str) -> set:
    return {rule.id for rule in ANALYZERS[tool][2].values()}


def whole_corpus_flags(tool: str) -> Tuple[object, set]:
    """Run ``tool`` over its whole corpus: (result, flagged files)."""
    root, run, _ = ANALYZERS[tool]
    result = run([root])
    flagged = {str(Path(f.path).resolve().relative_to(root)) for f in result.findings}
    return result, flagged


def test_manifest_matches_every_corpus_directory():
    for tool in MANIFEST:
        assert corpus_files(tool) == sorted(MANIFEST[tool]), tool
        for rel, pinned in MANIFEST[tool].items():
            assert Path(rel).name.startswith("mut_" if pinned else "clean_"), rel


def test_every_rule_is_exercised_by_a_mutant():
    for tool in MANIFEST:
        assert exercised_rules(tool) == catalog_ids(tool), tool


@pytest.mark.parametrize("tool,rel", CASES, ids=[f"{t}:{r}" for t, r in CASES])
def test_file_hits_exactly_its_pinned_lines(tool, rel):
    assert hits(tool, rel) == MANIFEST[tool][rel]


@pytest.mark.parametrize("tool", sorted(MANIFEST))
def test_whole_corpus_fails_the_gate_on_mutants_only(tool):
    result, flagged = whole_corpus_flags(tool)
    assert not result.ok
    assert result.files_scanned == len(MANIFEST[tool])
    assert flagged == set(mutants(tool))
