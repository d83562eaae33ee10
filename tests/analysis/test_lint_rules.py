"""Unit tests for the reprolint rule catalog and pragma machinery."""

import pytest

from repro.analysis import Severity, lint_source
from repro.analysis.linter import iter_python_files, lint_paths
from repro.analysis.rules import RULE_REGISTRY


def _rules_of(result):
    return [f.rule for f in result.findings]


class TestUnseededRng:
    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        result = lint_source(src, rel="repro/data/foo.py")
        assert _rules_of(result) == ["unseeded-rng"]
        assert result.findings[0].severity is Severity.ERROR
        assert result.findings[0].line == 2

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert not lint_source(src, rel="repro/data/foo.py").findings

    def test_legacy_global_sampler_flagged(self):
        src = "import numpy as np\nx = np.random.randint(0, 10)\n"
        result = lint_source(src, rel="repro/data/foo.py")
        assert _rules_of(result) == ["unseeded-rng"]

    def test_from_import_resolved(self):
        src = "from numpy.random import default_rng\nrng = default_rng()\n"
        result = lint_source(src, rel="repro/data/foo.py")
        assert _rules_of(result) == ["unseeded-rng"]

    def test_rng_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert not lint_source(src, rel="repro/utils/rng.py").findings

    def test_generator_annotation_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    rng.random(3)\n"
        )
        assert not lint_source(src, rel="repro/data/foo.py").findings


class TestWallClock:
    def test_perf_counter_in_system_flagged(self):
        src = "import time\nt = time.perf_counter()\n"
        result = lint_source(src, rel="repro/system/foo.py")
        assert _rules_of(result) == ["wall-clock"]

    def test_from_import_alias_resolved(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        result = lint_source(src, rel="repro/serving/foo.py")
        assert _rules_of(result) == ["wall-clock"]

    def test_outside_zone_ok(self):
        src = "import time\nt = time.perf_counter()\n"
        assert not lint_source(src, rel="repro/utils/timer.py").findings

    def test_time_sleep_not_flagged(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert not lint_source(src, rel="repro/system/foo.py").findings


class TestImplicitDtype:
    def test_zeros_without_dtype_flagged(self):
        src = "import numpy as np\nx = np.zeros((4, 4))\n"
        result = lint_source(src, rel="repro/embeddings/foo.py")
        assert _rules_of(result) == ["implicit-dtype"]

    def test_zeros_with_dtype_ok(self):
        src = "import numpy as np\nx = np.zeros((4, 4), dtype=np.float32)\n"
        assert not lint_source(src, rel="repro/embeddings/foo.py").findings

    @pytest.mark.parametrize(
        "line",
        [
            "x = np.zeros((4, 4), dtype=np.float64)",
            "x = y.astype(np.float64)",
            "x = np.asarray(y, dtype=np.float64)",
            "x = np.asarray(y, dtype=f64)",
        ],
    )
    @pytest.mark.parametrize(
        "zone", ["embeddings", "nn", "sharding", "models", "serving"]
    )
    def test_hard_coded_float64_flagged(self, line, zone):
        src = f"import numpy as np\nfrom numpy import float64 as f64\n{line}\n"
        result = lint_source(src, rel=f"repro/{zone}/foo.py")
        assert _rules_of(result) == ["implicit-dtype"]
        assert result.findings[0].line == 3
        assert "float64" in result.findings[0].message

    def test_hard_coded_float64_outside_the_zones_ok(self):
        src = "import numpy as np\nx = np.asarray(y, dtype=np.float64)\n"
        for zone in ("data", "system", "reorder"):
            assert not lint_source(src, rel=f"repro/{zone}/foo.py").findings

    def test_model_dtype_and_pragma_ok(self):
        src = (
            "import numpy as np\n"
            "x = np.asarray(y, dtype=z.dtype)\n"
            "r = np.arange(3, dtype=np.float64)  "
            "# reprolint: disable=REP003 (AUC rank sums)\n"
        )
        result = lint_source(src, rel="repro/models/foo.py")
        assert not result.findings and result.suppressed == 1

    def test_zeros_like_exempt(self):
        src = "import numpy as np\ndef f(y):\n    return np.zeros_like(y)\n"
        assert not lint_source(src, rel="repro/nn/foo.py").findings

    def test_outside_kernel_zone_ok(self):
        src = "import numpy as np\nx = np.zeros((4, 4))\n"
        assert not lint_source(src, rel="repro/data/foo.py").findings


class TestBatchLoop:
    def test_batch_range_loop_warned(self):
        src = (
            "def forward(batch_size):\n"
            "    for i in range(batch_size):\n"
            "        pass\n"
        )
        result = lint_source(src, rel="repro/nn/foo.py")
        assert _rules_of(result) == ["batch-loop"]
        assert result.findings[0].severity is Severity.WARNING

    def test_core_loop_not_warned(self):
        src = "def f(cores):\n    for core in cores:\n        pass\n"
        assert not lint_source(src, rel="repro/nn/foo.py").findings


class TestDirectNumpy:
    def test_matmul_in_kernel_zone_flagged(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.matmul(a, b)\n"
        result = lint_source(src, rel="repro/embeddings/foo.py")
        assert _rules_of(result) == ["direct-numpy-in-kernel-zone"]
        assert result.findings[0].severity is Severity.ERROR

    def test_einsum_in_nn_zone_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.einsum('bfd,bgd->bfg', a, b)\n"
        )
        result = lint_source(src, rel="repro/nn/foo.py")
        assert _rules_of(result) == ["direct-numpy-in-kernel-zone"]

    def test_dot_in_system_zone_flagged(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.dot(a, b)\n"
        result = lint_source(src, rel="repro/system/foo.py")
        assert _rules_of(result) == ["direct-numpy-in-kernel-zone"]

    def test_backend_routed_call_ok(self):
        src = (
            "from repro.backend import get_backend\n"
            "def f(a, b):\n"
            "    return get_backend().matmul(a, b)\n"
        )
        assert not lint_source(src, rel="repro/embeddings/foo.py").findings

    def test_outside_routed_zone_ok(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.matmul(a, b)\n"
        assert not lint_source(src, rel="repro/data/foo.py").findings

    def test_einsum_path_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.einsum_path('ij,jk->ik', a, b)\n"
        )
        assert not lint_source(src, rel="repro/backend/foo.py").findings

    def test_file_pragma_covers_reference_backend(self):
        src = (
            "# reprolint: disable-file=direct-numpy-in-kernel-zone\n"
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.matmul(a, b)\n"
        )
        result = lint_source(src, rel="repro/backend/foo.py")
        assert not result.findings
        assert result.suppressed == 1


class TestSilentExcept:
    def test_bare_except_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        raise\n"
        )
        result = lint_source(src, rel="repro/system/foo.py")
        assert _rules_of(result) == ["silent-except"]
        assert result.findings[0].severity is Severity.ERROR

    def test_pass_only_handler_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        result = lint_source(src, rel="repro/resilience/foo.py")
        assert _rules_of(result) == ["silent-except"]
        assert "ValueError" in result.findings[0].message

    def test_docstring_only_handler_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except KeyError:\n"
            "        'tolerated'\n"
        )
        result = lint_source(src, rel="repro/embeddings/foo.py")
        assert _rules_of(result) == ["silent-except"]

    def test_handler_that_acts_ok(self):
        src = (
            "def f(log):\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError as exc:\n"
            "        log.append(exc)\n"
        )
        assert not lint_source(src, rel="repro/system/foo.py").findings

    def test_reraise_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        raise RuntimeError('context')\n"
        )
        assert not lint_source(src, rel="repro/serving/foo.py").findings

    def test_outside_zone_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert not lint_source(src, rel="repro/data/foo.py").findings


class TestPragmas:
    def test_line_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros((4, 4))  # reprolint: disable=implicit-dtype\n"
        )
        result = lint_source(src, rel="repro/nn/foo.py")
        assert not result.findings
        assert result.suppressed == 1

    def test_pragma_by_rule_id(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros((4, 4))  # reprolint: disable=REP003\n"
        )
        assert not lint_source(src, rel="repro/nn/foo.py").findings

    def test_disable_all(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros((4, 4))  # reprolint: disable=all\n"
        )
        assert not lint_source(src, rel="repro/nn/foo.py").findings

    def test_file_pragma_suppresses_whole_module(self):
        src = (
            "# reprolint: disable-file=wall-clock\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.perf_counter()\n"
        )
        result = lint_source(src, rel="repro/system/foo.py")
        assert not result.findings
        assert result.suppressed == 2

    def test_pragma_only_covers_its_line(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros((4, 4))  # reprolint: disable=implicit-dtype\n"
            "y = np.zeros((4, 4))\n"
        )
        result = lint_source(src, rel="repro/nn/foo.py")
        assert _rules_of(result) == ["implicit-dtype"]
        assert result.findings[0].line == 3


class TestRunner:
    def test_registry_has_expected_rules(self):
        assert set(RULE_REGISTRY) >= {
            "unseeded-rng",
            "wall-clock",
            "implicit-dtype",
            "batch-loop",
            "direct-numpy-in-kernel-zone",
            "silent-except",
        }

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", rel="repro/foo.py", select=["nope"])

    def test_select_filters(self):
        src = (
            "import numpy as np\nimport time\n"
            "x = np.zeros((4, 4))\n"
            "t = time.time()\n"
        )
        result = lint_source(
            src, rel="repro/embeddings/foo.py", select=["wall-clock"]
        )
        assert _rules_of(result) == ["wall-clock"]

    def test_iter_python_files_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([tmp_path / "does_not_exist"]))

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def f(:\n")
        result = lint_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["syntax-error"]
        assert not result.ok

    def test_json_output_round_trips(self):
        import json

        src = "import numpy as np\nx = np.zeros(3)\n"
        result = lint_source(src, rel="repro/nn/foo.py")
        payload = json.loads(result.to_json())
        assert payload["findings"][0]["rule"] == "implicit-dtype"
        assert payload["findings"][0]["severity"] == "error"
