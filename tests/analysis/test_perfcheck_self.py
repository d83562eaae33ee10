"""Self-application of perfcheck.

The shipped ``src/repro`` tree passes its own analyzer (warnings are
advisory; error-level findings would fail CI here).
"""

from pathlib import Path

from repro.analysis.perfcheck import perfcheck_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_passes_perfcheck():
    result = perfcheck_paths([SRC])
    errors = [f.format() for f in result.findings if f.severity == "error"]
    assert result.ok, "perfcheck failed on shipped tree:\n" + "\n".join(errors)
    assert result.files_scanned > 100
