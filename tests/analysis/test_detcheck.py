"""Unit tests for the detcheck determinism-taint analyzer.

Covers the behaviors the corpus can't pin file-by-file: whole-program
(cross-file) taint resolution, pragma suppression, rule selection,
SARIF rendering, and syntax-error degradation.
"""

import json

import pytest

from repro.analysis.detcheck import (
    DET_RULES,
    detcheck_paths,
    detcheck_source,
)
from repro.analysis.sarif import result_to_sarif

_ACCUM = (
    "from typing import Dict\n"
    "\n"
    "def total(parts: Dict[str, float]) -> float:\n"
    "    out = 0.0\n"
    "    for name in parts:\n"
    "        out += parts[name]\n"
    "    return out\n"
)


class TestInterprocedural:
    def test_entropy_rng_escape_across_modules(self, tmp_path):
        # The entropy generator is minted in a helper *module*; the
        # zone file only ever sees the returned value.  Summary-based
        # propagation must still carry the taint to the call site.
        zone = tmp_path / "repro" / "system"
        zone.mkdir(parents=True)
        (zone / "rng_helpers.py").write_text(
            "import numpy as np\n"
            "\n"
            "def fresh_generator():\n"
            "    return np.random.default_rng()\n"
        )
        (zone / "shuffler.py").write_text(
            "from repro.system.rng_helpers import fresh_generator\n"
            "\n"
            "def shuffle(batch):\n"
            "    rng = fresh_generator()\n"
            "    return rng.permutation(batch)\n"
        )
        result = detcheck_paths([tmp_path])
        hits = [(f.rule_id, f.path.endswith("shuffler.py")) for f in result.findings]
        assert ("DET004", True) in hits
        assert all(rule == "DET004" for rule, _ in hits)

    def test_seeded_helper_stays_clean_across_modules(self, tmp_path):
        zone = tmp_path / "repro" / "system"
        zone.mkdir(parents=True)
        (zone / "rng_helpers.py").write_text(
            "import numpy as np\n"
            "\n"
            "def fresh_generator(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        (zone / "shuffler.py").write_text(
            "from repro.system.rng_helpers import fresh_generator\n"
            "\n"
            "def shuffle(batch):\n"
            "    rng = fresh_generator(7)\n"
            "    return rng.permutation(batch)\n"
        )
        result = detcheck_paths([tmp_path])
        assert result.findings == []

    def test_sink_reached_through_callee(self, tmp_path):
        # Taint flows *into* a checkpoint payload through a helper's
        # parameter: the writer function is the sink even though the
        # tainted value is minted one frame up.
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "writer.py").write_text(
            "import numpy as np\n"
            "\n"
            "def persist(path, blob):\n"
            "    np.savez(path, data=blob)\n"
            "\n"
            "def snapshot(path):\n"
            "    salt = np.random.default_rng().standard_normal(4)\n"
            "    persist(path, salt)\n"
        )
        result = detcheck_paths([tmp_path])
        assert any(f.rule_id == "DET001" for f in result.findings)

    def test_sink_reached_through_a_package_reexport(self, tmp_path):
        # ``from repro.plans import plan`` names the function the
        # package's __init__ imports from ``repro.plans.planner``; the
        # budget meets the ModelPlan sink there, two calls down.
        pkg = tmp_path / "repro" / "plans"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from repro.plans.planner import plan\n"
        )
        (pkg / "planner.py").write_text(
            "from repro.embeddings.planner import ModelPlan\n"
            "\n"
            "def plan(budget_bytes):\n"
            "    return ModelPlan(\n"
            "        policy='under_budget', tables=(),\n"
            "        budget_bytes=int(budget_bytes),\n"
            "        embedding_dim=16, dtype_bytes=4,\n"
            "    )\n"
        )
        (tmp_path / "repro" / "models.py").write_text(
            "import os\n"
            "\n"
            "from repro.plans import plan\n"
            "\n"
            "def planned_model(budget_bytes):\n"
            "    return plan(budget_bytes)\n"
            "\n"
            "def build():\n"
            "    return planned_model(int(os.environ['BUDGET']))\n"
        )
        result = detcheck_paths([tmp_path])
        hits = [
            (f.rule_id, f.path.rsplit("/", 1)[-1], f.line)
            for f in result.findings
        ]
        assert hits == [("DET001", "models.py", 9)]


class TestClosures:
    """Nested ``def``s are program functions, resolved by scope only."""

    def test_closure_summary_reaches_the_enclosing_sink(self):
        # The closure returns the taint; the sink is in the enclosing body.
        source = (
            "import os\n"
            "\n"
            "def train(server, uidx, grads):\n"
            "    def scale():\n"
            "        return float(os.environ['SCALE'])\n"
            "    server.apply_gradients(0, uidx, grads * scale())\n"
        )
        hits = [(f.rule_id, f.line) for f in detcheck_source(source).findings]
        assert hits == [("DET001", 6)]

    def test_closure_nested_twice_is_walked(self):
        source = (
            "import os\n"
            "\n"
            "def train(server, uidx, grads):\n"
            "    def outer():\n"
            "        def inner():\n"
            "            server.step_rows(uidx, grads * len(os.environ))\n"
            "        inner()\n"
            "    outer()\n"
        )
        hits = [(f.rule_id, f.line) for f in detcheck_source(source).findings]
        assert hits == [("DET001", 6)]

    def test_receiver_calls_never_merge_a_closure(self):
        # ``q.get()`` must not pick up a tainted closure named ``get``.
        source = (
            "import os\n"
            "\n"
            "def train(server, q):\n"
            "    def get():\n"
            "        return os.environ['X']\n"
            "    server.apply_gradients(0, q.get())\n"
        )
        assert detcheck_source(source).findings == []


class TestSuppressionAndSelection:
    def test_unordered_accum_fires(self):
        result = detcheck_source(_ACCUM)
        assert [f.rule_id for f in result.findings] == ["DET002"]
        assert result.findings[0].line == 6

    def test_line_pragma_suppresses(self):
        source = _ACCUM.replace(
            "out += parts[name]",
            "out += parts[name]  # reprolint: disable=unordered-float-accum",
        )
        result = detcheck_source(source)
        assert result.findings == []
        assert result.suppressed == 1

    def test_rule_id_pragma_suppresses(self):
        source = _ACCUM.replace(
            "out += parts[name]",
            "out += parts[name]  # reprolint: disable=DET002",
        )
        result = detcheck_source(source)
        assert result.findings == []
        assert result.suppressed == 1

    def test_select_filters_rules(self):
        assert detcheck_source(_ACCUM, select=["DET002"]).findings
        assert not detcheck_source(_ACCUM, select=["tainted-state"]).findings

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            detcheck_source(_ACCUM, select=["DET999"])


class TestOutputs:
    def test_sarif_document_is_valid(self):
        result = detcheck_source(_ACCUM)
        doc = json.loads(
            result_to_sarif(result, "detcheck", DET_RULES.values())
        )
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "detcheck"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {f"DET{n:03d}" for n in range(1, 6)}  # DET006 retired
        assert [r["ruleId"] for r in run["results"]] == ["DET002"]

    def test_syntax_error_degrades_to_det000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n    pass\n")
        result = detcheck_paths([bad])
        assert [f.rule_id for f in result.findings] == ["DET000"]
        assert not result.ok


class TestRuleCatalog:
    def test_rule_table_is_complete(self):
        assert sorted(r.id for r in DET_RULES.values()) == [
            f"DET{n:03d}" for n in range(1, 6)  # DET006 retired
        ]
        for name, rule in DET_RULES.items():
            assert rule.name == name
            assert rule.description
