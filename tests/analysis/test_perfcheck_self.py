"""Self-application of perfcheck plus the FusionPlan/calibration contract.

Three acceptance gates from the perfcheck design:

1. the shipped ``src/repro`` tree passes its own analyzer (warnings are
   advisory; error-level findings would fail CI here),
2. the emitted FusionPlan names the EL-Rec kernel zones with at least one
   multi-node fusable chain each — the contract a fused backend consumes,
3. the static cost model agrees with measured per-zone counters from an
   instrumented training run (the calibration gate).
"""

import json
from pathlib import Path

from repro.analysis.perfcheck import (
    build_fusion_plan,
    perfcheck_paths,
    run_calibration,
)
from repro.backend.protocol import ZONE_EFFTT_FORWARD, ZONE_TT_BACKWARD

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_passes_perfcheck():
    result = perfcheck_paths([SRC])
    errors = [f.format() for f in result.findings if f.severity == "error"]
    assert result.ok, "perfcheck failed on shipped tree:\n" + "\n".join(errors)
    assert result.files_scanned > 100


def test_fusion_plan_covers_elrec_kernel_zones():
    plan = build_fusion_plan([SRC])
    assert plan["version"] == 1
    for zone in (ZONE_EFFTT_FORWARD, ZONE_TT_BACKWARD):
        assert zone in plan["zones"], f"no FusionPlan entry for {zone}"
        chains = plan["zones"][zone]["chains"]
        multi = [c for c in chains if len(c["ops"]) >= 2]
        assert multi, f"{zone} has no multi-node fusable chain"
        for chain in multi:
            assert chain["path"].endswith(".py")
            for op in chain["ops"]:
                assert set(op) >= {"op", "line", "out_shape", "flops", "bytes"}


def test_fusion_plan_json_round_trips():
    plan = build_fusion_plan([SRC])
    assert json.loads(json.dumps(plan)) == plan


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
