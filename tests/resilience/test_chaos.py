"""End-to-end chaos harness and CLI tests.

The default-run tests cover the acceptance path (``repro chaos --plan
smoke`` green, snapshot/restore bitwise); the remaining named plans are
``chaos_slow`` (each is a full train+serve scenario).
"""

import pytest

from repro.cli import main
from repro.resilience.chaos import (
    FAULT_PLANS,
    ChaosHarnessConfig,
    FleetChaosConfig,
    resume_determinism_check,
    run_chaos,
    run_fleet_chaos,
)
from repro.resilience.faults import FaultPlan


@pytest.fixture(scope="module")
def smoke_outcome(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("chaos-smoke")
    return run_chaos(FAULT_PLANS["smoke"], str(scratch))


class TestSmokePlan:
    def test_all_invariants_hold(self, smoke_outcome):
        assert smoke_outcome.passed, smoke_outcome.format()

    def test_recovery_story(self, smoke_outcome):
        rec = smoke_outcome.recovery
        assert rec is not None
        # CRASH@5 and H2D_FAIL@9 restart; DROP@12 rolls back silently.
        assert rec.restarts == 2
        assert rec.rollbacks == 1
        assert rec.corrupt_skipped == [8]  # CORRUPT@8 skipped on fallback
        assert rec.replayed_batches > 0
        assert not rec.duplicate_applies

    def test_serving_story(self, smoke_outcome):
        degraded = smoke_outcome.serving_degraded
        assert degraded is not None
        assert degraded.replicas[0].fallback_batches > 0

    def test_format_renders_checks_and_verdict(self, smoke_outcome):
        text = smoke_outcome.format()
        assert "bitwise loss trajectory" in text
        assert "[ok]" in text
        assert text.rstrip().endswith("PASS")


class TestResumeDeterminism:
    def test_snapshot_restore_is_bitwise(self, tmp_path):
        assert resume_determinism_check(
            str(tmp_path),
            config=ChaosHarnessConfig(num_batches=10, checkpoint_interval=4),
        )

    def test_split_validated(self, tmp_path):
        with pytest.raises(ValueError):
            resume_determinism_check(str(tmp_path), split=0)


class TestCli:
    def test_chaos_none_plan_exits_zero(self, capsys):
        rc = main([
            "chaos", "--plan", "none",
            "--batches", "8", "--checkpoint-interval", "4",
            "--requests", "200",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--plan", "nonexistent"])


@pytest.mark.chaos_slow
@pytest.mark.parametrize(
    "plan_name", ["stage-sweep", "torn-checkpoint", "serve-degrade"]
)
def test_named_plan_passes(plan_name, tmp_path):
    outcome = run_chaos(FAULT_PLANS[plan_name], str(tmp_path))
    assert outcome.passed, outcome.format()


@pytest.mark.chaos_slow
def test_random_plan_recovers(tmp_path):
    plan = FaultPlan.random("fuzz", seed=4, num_faults=3, max_step=18)
    outcome = run_chaos(plan, str(tmp_path))
    assert outcome.passed, outcome.format()


class TestFleetChaos:
    def test_smoke_plan_passes(self):
        outcome = run_fleet_chaos(
            "fleet-smoke", FleetChaosConfig(num_requests=240)
        )
        assert outcome.passed, outcome.format()
        assert "kill-one-replica bitwise" in outcome.format()

    def test_unknown_plan_rejected(self):
        with pytest.raises(KeyError):
            run_fleet_chaos("fleet-nonexistent")

    def test_cli_fleet_smoke_exits_zero(self, capsys):
        rc = main(["chaos", "--plan", "fleet-smoke", "--requests", "240"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out


@pytest.mark.chaos_slow
def test_fleet_replica_sweep_passes():
    outcome = run_fleet_chaos("fleet-replica-sweep")
    assert outcome.passed, outcome.format()
    text = outcome.format()
    assert "kill-any-replica bitwise at every injection point" in text
    assert "rolling swap" in text
