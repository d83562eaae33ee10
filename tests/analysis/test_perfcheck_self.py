"""Self-application of perfcheck plus the calibration contract.

Two acceptance gates from the perfcheck design:

1. the shipped ``src/repro`` tree passes its own analyzer (warnings are
   advisory; error-level findings would fail CI here),
2. the static cost model agrees with measured per-zone counters from an
   instrumented training run (the calibration gate).
"""

from pathlib import Path

from repro.analysis.perfcheck import perfcheck_paths, run_calibration

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_passes_perfcheck():
    result = perfcheck_paths([SRC])
    errors = [f.format() for f in result.findings if f.severity == "error"]
    assert result.ok, "perfcheck failed on shipped tree:\n" + "\n".join(errors)
    assert result.files_scanned > 100


def test_calibration_matches_instrumented_counters():
    report = run_calibration(steps=2)
    assert report.zones, "instrumented run recorded no kernel zones"
    assert report.ok, (
        "static cost model out of tolerance: "
        + ", ".join(
            f"{z.zone}: flops {z.flops_rel_err:.2%}, bytes {z.bytes_rel_err:.2%}"
            for z in report.zones
        )
    )
    # The shared plan cache makes the estimate exact, not merely close.
    assert report.max_rel_err == 0.0
