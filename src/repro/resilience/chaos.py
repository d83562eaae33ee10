"""Chaos harness: run train/serve under a fault plan, check invariants.

``run_chaos`` is the engine behind the ``repro chaos`` CLI subcommand.
Given a named :class:`~repro.resilience.faults.FaultPlan` it:

1. trains an uninterrupted **reference** run (no faults, single
   ``train`` call) on the standard small PS-pipeline harness;
2. runs the same workload under the plan through
   :class:`~repro.resilience.supervisor.PipelineSupervisor` with a
   fault-injecting probe and a sabotaged checkpoint store;
3. serves a request stream through a one-replica
   :class:`~repro.serving.fleet.ServingFleet` twice — clean baseline
   and under the plan's slowdown windows — with the reference model
   as primary and an earlier snapshot as the stale fallback;
4. evaluates the **invariant checklist**: bitwise-identical loss
   trajectory, no lost steps, no duplicate host applies, every
   scheduled fault fired, recovery within the restart budget, a
   deterministic backoff schedule, bounded fallback staleness, full
   request accounting, and bounded p99 degradation.

Every check lands in the outcome as ``(name, ok, detail)`` so both the
CLI and the test suite render/assert the same list.  The whole run is
deterministic — two invocations of the same plan produce identical
outcomes, including the failure story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.checks import Check, small_config
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.circuit import BreakerConfig, BreakerState
from repro.resilience.degradation import DegradationPolicy
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    FaultProbe,
    FaultSite,
    FaultSpec,
)
from repro.resilience.supervisor import (
    PipelineSupervisor,
    RecoveryReport,
    RetryPolicy,
)
from repro.serving.batcher import BatchingPolicy
from repro.serving.requests import RequestGenerator
from repro.serving.snapshot import ModelSnapshot
from repro.sharding.trainer import build_sharded_ps_trainer
from repro.system.pipeline import PipelinedPSTrainer

if TYPE_CHECKING:  # repro.serving.fleet imports this package back
    from repro.serving.fleet import FleetOutcome

__all__ = [
    "FAULT_PLANS",
    "FLEET_CHAOS_PLANS",
    "ChaosOutcome",
    "ChaosHarnessConfig",
    "FleetChaosConfig",
    "run_chaos",
    "run_fleet_chaos",
    "resume_determinism_check",
]


#: Named plans for the CLI and quickcheck.  Trainer faults are keyed on
#: the 18-step harness below (snapshots every 4 steps); serving
#: slowdowns on its ~0.5 s simulated request stream.
FAULT_PLANS: Dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "smoke": FaultPlan(
        name="smoke",
        specs=(
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=5),
            FaultSpec(FaultKind.CORRUPT, FaultSite.CHECKPOINT, step=8),
            FaultSpec(FaultKind.H2D_FAIL, FaultSite.PREFETCH_QUEUE, step=9),
            FaultSpec(FaultKind.DROP, FaultSite.GRAD_QUEUE, step=12),
            FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.SERVE,
                time=0.05, duration=0.1, factor=40.0,
            ),
        ),
        seed=11,
    ),
    "stage-sweep": FaultPlan(
        name="stage-sweep",
        specs=(
            FaultSpec(FaultKind.CRASH, FaultSite.GATHER, step=3),
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=7),
            FaultSpec(FaultKind.CRASH, FaultSite.APPLY, step=11),
            FaultSpec(FaultKind.STALL, FaultSite.PREFETCH_QUEUE, step=14),
        ),
        seed=12,
    ),
    "torn-checkpoint": FaultPlan(
        name="torn-checkpoint",
        specs=(
            FaultSpec(FaultKind.TORN, FaultSite.CHECKPOINT, step=8),
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=10),
            FaultSpec(FaultKind.CORRUPT, FaultSite.CHECKPOINT, step=12),
            FaultSpec(FaultKind.CRASH, FaultSite.APPLY, step=14),
        ),
        seed=13,
    ),
    "serve-degrade": FaultPlan(
        name="serve-degrade",
        specs=(
            FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.SERVE,
                time=0.05, duration=0.1, factor=40.0,
            ),
        ),
        seed=14,
    ),
}


@dataclass(frozen=True)
class ChaosHarnessConfig:
    """Workload knobs for a chaos run (defaults sized for CI)."""

    num_batches: int = 18
    checkpoint_interval: int = 4
    batch_size: int = 32
    scale: float = 2e-5
    num_requests: int = 600
    request_rate: float = 1500.0
    hot_coverage: float = 0.3
    #: Degraded p99 may exceed the clean baseline's by at most this
    #: factor (the "bounded degradation" SLO under injected slowdowns).
    #: The breaker trips only after ``failure_threshold`` slow batches,
    #: so a handful of breach-window requests always land in the tail;
    #: without the ladder a 40x slowdown window blows p99 far past
    #: this.
    p99_budget_factor: float = 10.0
    max_restarts: int = 8
    #: Shards of the :class:`~repro.sharding.server.ShardedParameterServer`
    #: behind the host tables (trajectories are identical for any count,
    #: compression off).
    num_shards: int = 1


@dataclass
class ChaosOutcome:
    """Everything one chaos run produced."""

    plan: FaultPlan
    checks: List[Check] = field(default_factory=list)
    recovery: Optional[RecoveryReport] = None
    serving_baseline: Optional["FleetOutcome"] = None
    serving_degraded: Optional["FleetOutcome"] = None

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def format(self) -> str:
        lines = [self.plan.describe(), ""]
        if self.recovery is not None:
            rec = self.recovery
            lines.append(
                f"training: {len(rec.losses)} steps committed, "
                f"{rec.restarts} restarts, {rec.rollbacks} rollbacks, "
                f"{rec.replayed_batches} batches replayed, "
                f"{rec.total_backoff:.4f}s backoff"
            )
            for event in rec.events:
                lines.append(f"  {event}")
        if self.serving_degraded is not None:
            deg = self.serving_degraded
            replica = deg.replicas[0]
            primary = replica.batches_served - replica.fallback_batches
            lines.append(
                f"serving: {primary} primary / "
                f"{replica.fallback_batches} fallback batches, "
                f"{len(deg.shed_ids)} shed, breaker "
                f"{replica.final_breaker_state.value}"
            )
        lines.append("")
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            suffix = f"  ({check.detail})" if check.detail else ""
            lines.append(f"  {check.name:34s} [{status}]{suffix}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"chaos plan {self.plan.name!r}: {verdict}")
        return "\n".join(lines)


def _build_harness(config: ChaosHarnessConfig):
    """The standard small PS-pipeline workload (mirrors the test suite)."""
    spec = criteo_kaggle_like(scale=config.scale)
    log = SyntheticClickLog(spec, batch_size=config.batch_size, seed=0)
    model_cfg = small_config(spec, EmbeddingBackend.EFF_TT, tt_threshold_rows=100)
    rows = list(model_cfg.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]

    def factory(probe) -> PipelinedPSTrainer:
        return build_sharded_ps_trainer(
            model_cfg,
            num_shards=config.num_shards,
            host_positions=host_positions,
            probe=probe,
        ).trainer

    return spec, log, factory


def _check_training(
    plan: FaultPlan,
    config: ChaosHarnessConfig,
    checkpoint_dir: str,
    outcome: ChaosOutcome,
) -> Optional[PipelinedPSTrainer]:
    spec, log, factory = _build_harness(config)

    reference = factory(None)
    ref_losses = [
        float(x) for x in reference.train(log, config.num_batches).losses
    ]

    injector = plan.injector()
    probe = FaultProbe(injector)
    store = CheckpointStore(
        checkpoint_dir, keep_last=max(4, config.max_restarts),
        injector=injector,
    )
    policy = RetryPolicy(max_restarts=config.max_restarts, seed=plan.seed)
    supervisor = PipelineSupervisor(factory, store, probe, policy)
    report = supervisor.run(
        log, config.num_batches, config.checkpoint_interval
    )
    outcome.recovery = report

    checks = outcome.checks
    checks.append(Check(
        "bitwise loss trajectory",
        report.losses == ref_losses,
        f"{len(report.losses)} committed vs {len(ref_losses)} reference",
    ))
    checks.append(Check(
        "no lost steps",
        len(report.losses) == config.num_batches,
        f"{len(report.losses)}/{config.num_batches}",
    ))
    checks.append(Check(
        "no duplicate applies",
        not report.duplicate_applies,
        f"{len(report.duplicate_applies)} duplicates",
    ))
    train_pending = [
        s for s in injector.pending if s.kind is not FaultKind.SLOWDOWN
    ]
    checks.append(Check(
        "all trainer faults fired",
        not train_pending,
        f"{len(train_pending)} never fired",
    ))
    recoveries = report.restarts + report.rollbacks
    checks.append(Check(
        "recovery within budget",
        recoveries <= config.max_restarts,
        f"{recoveries} recoveries, budget {config.max_restarts}",
    ))
    expected_backoff = sum(policy.schedule(report.restarts))
    checks.append(Check(
        "deterministic backoff schedule",
        abs(report.total_backoff - expected_backoff) < 1e-12,
        f"waited {report.total_backoff:.4f}s",
    ))
    return reference


#: Degradation policy every chaos serving run uses (shared so checks
#: and server agree on the staleness bound).
_SERVE_POLICY = DegradationPolicy(
    slo_target=5e-3,
    max_staleness=10.0,
    breaker=BreakerConfig(
        failure_threshold=3, cooldown=0.02, half_open_successes=2,
    ),
)


def _serve(
    primary: ModelSnapshot,
    fallback: ModelSnapshot,
    spec,
    config: ChaosHarnessConfig,
    injector,
) -> "FleetOutcome":
    from repro.serving.fleet import FleetConfig, ServingFleet

    generator = RequestGenerator(spec, rate=config.request_rate, seed=5)
    requests = generator.generate(config.num_requests)
    hot_rows = {
        t: generator.hot_rows(t, config.hot_coverage)
        for t in range(spec.num_sparse)
    }
    fleet = ServingFleet(
        primary,
        hot_rows=hot_rows,
        config=FleetConfig(
            num_replicas=1,
            batching=BatchingPolicy(max_batch_size=16, max_wait=1e-3),
            degradation=_SERVE_POLICY,
        ),
        injector=injector,
    )
    fleet.set_fallback(fallback, hot_rows=hot_rows, time=0.0)
    return fleet.run(requests)


def _check_serving(
    plan: FaultPlan,
    config: ChaosHarnessConfig,
    reference: PipelinedPSTrainer,
    spec,
    outcome: ChaosOutcome,
) -> None:
    primary = ModelSnapshot.from_trainer(reference, version=1)
    fallback = ModelSnapshot.from_trainer(reference, version=0)

    baseline = _serve(primary, fallback, spec, config, injector=None)
    degraded = _serve(
        primary, fallback, spec, config, injector=plan.injector()
    )
    outcome.serving_baseline = baseline
    outcome.serving_degraded = degraded

    checks = outcome.checks
    replica = degraded.replicas[0]
    offered = degraded.report.offered
    accounted = (
        degraded.report.completed
        + len(degraded.rejected_ids)
        + len(degraded.shed_ids)
    )
    checks.append(Check(
        "all requests accounted",
        offered == accounted and offered == config.num_requests,
        f"{accounted}/{offered} (completed {degraded.report.completed})",
    ))
    checks.append(Check(
        "bounded fallback staleness",
        degraded.max_fallback_age <= _SERVE_POLICY.max_staleness,
        f"max age {degraded.max_fallback_age:.4f}s "
        f"(bound {_SERVE_POLICY.max_staleness:g}s)",
    ))
    p99_bound = baseline.report.latency_p99 * config.p99_budget_factor
    checks.append(Check(
        "p99 degradation bounded",
        degraded.report.latency_p99 <= p99_bound,
        f"p99 {degraded.report.latency_p99 * 1e3:.3f}ms vs bound "
        f"{p99_bound * 1e3:.3f}ms",
    ))
    if plan.serve_specs:
        opened = any(
            tr.dst is BreakerState.OPEN for tr in replica.breaker_transitions
        )
        checks.append(Check(
            "breaker opened under slowdown",
            opened,
            f"{len(replica.breaker_transitions)} transitions",
        ))
        checks.append(Check(
            "breaker recovered after window",
            replica.final_breaker_state is BreakerState.CLOSED,
            f"final state {replica.final_breaker_state.value}",
        ))
        checks.append(Check(
            "fallback actually served",
            replica.fallback_batches > 0,
            f"{replica.fallback_batches} stale batches",
        ))
    else:
        checks.append(Check(
            "breaker stayed closed (no serve faults)",
            replica.final_breaker_state is BreakerState.CLOSED
            and not replica.breaker_transitions,
            f"{len(replica.breaker_transitions)} transitions",
        ))


def run_chaos(
    plan: FaultPlan,
    checkpoint_dir: str,
    config: Optional[ChaosHarnessConfig] = None,
) -> ChaosOutcome:
    """Run the full chaos scenario for ``plan``; see the module docs."""
    config = config or ChaosHarnessConfig()
    outcome = ChaosOutcome(plan=plan)
    reference = _check_training(plan, config, checkpoint_dir, outcome)
    spec, _, _ = _build_harness(config)
    if reference is not None:
        _check_serving(plan, config, reference, spec, outcome)
    return outcome


def resume_determinism_check(
    checkpoint_dir: str,
    config: Optional[ChaosHarnessConfig] = None,
    split: Optional[int] = None,
) -> bool:
    """Kill-free snapshot/restore must reproduce the bitwise trajectory.

    Trains ``num_batches`` uninterrupted, then again as two chunks
    joined through a :class:`~repro.resilience.checkpoint.CheckpointStore`
    round-trip (snapshot at ``split``, fresh trainer, restore, resume).
    Returns whether losses *and* final host tables match bit for bit —
    the foundation invariant of every crash recovery in this package.
    """
    import numpy as np

    from repro.resilience.checkpoint import (
        capture_trainer_arrays,
        restore_trainer_arrays,
    )

    config = config or ChaosHarnessConfig()
    split = split if split is not None else config.num_batches // 2
    if not 0 < split < config.num_batches:
        raise ValueError(
            f"split must be in (0, {config.num_batches}), got {split}"
        )
    _, log, factory = _build_harness(config)

    reference = factory(None)
    ref_losses = [
        float(x) for x in reference.train(log, config.num_batches).losses
    ]

    store = CheckpointStore(checkpoint_dir, keep_last=2)
    first = factory(None)
    losses = [float(x) for x in first.train(log, split).losses]
    store.save(split, capture_trainer_arrays(first))

    state, skipped = store.load_latest()
    if skipped or state.step != split:
        return False
    second = factory(None)
    restore_trainer_arrays(second, state.arrays)
    losses += [
        float(x)
        for x in second.train(
            log, config.num_batches - split, start=split
        ).losses
    ]

    ref_state = reference.server.state_arrays()
    second_state = second.server.state_arrays()
    tables_equal = sorted(ref_state) == sorted(second_state) and all(
        np.array_equal(ref_state[k], second_state[k]) for k in ref_state
    )
    return losses == ref_losses and tables_equal


# ---------------------------------------------------------------------------
# Serving-fleet chaos
# ---------------------------------------------------------------------------

#: Fleet-side plan names the ``repro chaos`` CLI dispatches to
#: :func:`run_fleet_chaos` instead of :func:`run_chaos`.  They are
#: *meta*-plans: the harness derives the concrete
#: :class:`~repro.resilience.faults.FaultSpec` schedule (which replica,
#: which injection time) from the request stream at run time.
FLEET_CHAOS_PLANS: Tuple[str, ...] = ("fleet-smoke", "fleet-replica-sweep")


@dataclass(frozen=True)
class FleetChaosConfig:
    """Workload knobs for a serving-fleet chaos run (sized for CI).

    The config is deliberately generous on queue capacity and SLO
    target: front-door rejections and breaker trips are *load*
    responses, and the bitwise invariant is about *faults*, so the
    gate keeps the two concerns apart (load-shaping behaviour has its
    own tests).
    """

    num_replicas: int = 2
    num_requests: int = 400
    request_rate: float = 2500.0
    scale: float = 2e-5
    max_batch_size: int = 8
    max_wait: float = 1e-3
    hot_coverage: float = 0.3
    slo_target: float = 0.05
    queue_capacity: int = 512
    #: Fractions of the request stream at which the sweep injects a
    #: crash (each fraction x each replica is one run).
    injection_fractions: Tuple[float, ...] = (0.25, 0.5, 0.75)


def _build_fleet_world(config: FleetChaosConfig):
    """(spec, snapshot_v1, snapshot_v2, hot_rows, requests) for one gate."""
    spec = criteo_kaggle_like(scale=config.scale)
    model_cfg = small_config(spec, EmbeddingBackend.EFF_TT)
    snapshot_v1 = ModelSnapshot.from_model(DLRM(model_cfg, seed=7), version=1)
    snapshot_v2 = ModelSnapshot.from_model(DLRM(model_cfg, seed=9), version=2)
    generator = RequestGenerator(spec, rate=config.request_rate, seed=5)
    requests = generator.generate(config.num_requests)
    hot_rows = {
        t: generator.hot_rows(t, config.hot_coverage)
        for t in range(spec.num_sparse)
    }
    return spec, snapshot_v1, snapshot_v2, hot_rows, requests


def _fleet_config(config: FleetChaosConfig):
    from repro.serving.fleet import FleetConfig

    return FleetConfig(
        num_replicas=config.num_replicas,
        batching=BatchingPolicy(
            max_batch_size=config.max_batch_size,
            max_wait=config.max_wait,
            queue_capacity=config.queue_capacity,
        ),
        degradation=DegradationPolicy(slo_target=config.slo_target),
        queue_capacity=config.queue_capacity,
    )


def _injection_time(requests, fraction: float) -> float:
    index = min(
        int(fraction * (len(requests) - 1)), len(requests) - 1
    )
    return requests[index].arrival_time


def _delivered_bitwise(reference, faulted) -> Tuple[bool, str]:
    """Are all delivered predictions bitwise-equal to the reference's?

    Delivered = completed in the faulted run (everything the fleet
    actually answered).  Also insists batch compositions agree for all
    batch ids both runs formed — the stronger structural property the
    prediction equality rests on.
    """
    ref_preds = reference.predictions_by_request()
    got_preds = faulted.predictions_by_request()
    mismatched = [
        rid for rid in sorted(got_preds)
        if rid not in ref_preds or ref_preds[rid] != got_preds[rid]
    ]
    ref_comp = reference.batch_compositions()
    got_comp = faulted.batch_compositions()
    comp_diff = sorted(
        bid for bid in set(ref_comp) & set(got_comp)
        if ref_comp[bid] != got_comp[bid]
    )
    ok = not mismatched and not comp_diff
    detail = (
        f"{len(got_preds)} delivered, {len(mismatched)} prediction "
        f"mismatches, {len(comp_diff)} composition diffs"
    )
    return ok, detail


def run_fleet_chaos(
    plan_name: str,
    config: Optional[FleetChaosConfig] = None,
) -> ChaosOutcome:
    """Run a serving-fleet chaos plan and check its invariant list.

    ``fleet-smoke`` is the quickcheck gate: one crash of replica 0 at
    the midpoint of a 2-replica run must deliver bitwise-identical
    predictions for every answered request versus the fault-free run.

    ``fleet-replica-sweep`` is the full acceptance sweep: a crash of
    *every* replica at *every* injection fraction (each its own run,
    each bitwise vs the shared reference), plus a stuck-replica run
    (watchdog redirect, still bitwise), a slow-replica run (fault
    isolation: sibling breakers never open, still bitwise), and a
    rolling hot-swap under load (zero dropped in-flight batches, the
    ⌈N/2⌉ live floor held, versions monotonic, a stale follow-up swap
    rejected).
    """
    from repro.serving.fleet import ReplicaState, ServingFleet

    if plan_name not in FLEET_CHAOS_PLANS:
        raise KeyError(
            f"unknown fleet chaos plan {plan_name!r}; "
            f"expected one of {FLEET_CHAOS_PLANS}"
        )
    config = config or FleetChaosConfig()
    outcome = ChaosOutcome(plan=FaultPlan(name=plan_name))
    checks = outcome.checks
    _, snapshot_v1, snapshot_v2, hot_rows, requests = _build_fleet_world(
        config
    )
    fleet_cfg = _fleet_config(config)

    def fleet(injector=None) -> "ServingFleet":
        return ServingFleet(
            snapshot_v1, hot_rows=hot_rows, config=fleet_cfg,
            injector=injector,
        )

    reference = fleet().run(requests)
    checks.append(Check(
        "reference fleet run clean",
        not reference.rejected_ids
        and not reference.shed_ids
        and reference.unaccounted == 0
        and len(reference.results) == config.num_requests,
        f"{len(reference.results)}/{config.num_requests} completed",
    ))

    def crash_run(replica: int, fraction: float) -> Tuple[bool, str]:
        time = _injection_time(requests, fraction)
        plan = FaultPlan(
            name=f"crash-r{replica}@{fraction:g}",
            specs=(FaultSpec(
                FaultKind.CRASH, FaultSite.REPLICA,
                replica=replica, time=time,
            ),),
        )
        injector = plan.injector()
        run = fleet(injector).run(requests)
        ok, detail = _delivered_bitwise(reference, run)
        report = run.replicas[replica]
        fired = not injector.fleet_pending
        dead = report.final_state is ReplicaState.DEAD
        accounted = run.unaccounted == 0 and (
            len(run.results) + len(run.rejected_ids) + len(run.shed_ids)
            == config.num_requests
        )
        ok = ok and fired and dead and accounted
        return ok, (
            f"r{replica}@{fraction:g}: {detail}, "
            f"{len(run.redirects)} redirects"
        )

    if plan_name == "fleet-smoke":
        ok, detail = crash_run(0, 0.5)
        checks.append(Check("kill-one-replica bitwise", ok, detail))
        return outcome

    # fleet-replica-sweep -------------------------------------------------
    failures = []
    runs = 0
    for replica in range(config.num_replicas):
        for fraction in config.injection_fractions:
            runs += 1
            ok, detail = crash_run(replica, fraction)
            if not ok:
                failures.append(detail)
    checks.append(Check(
        "kill-any-replica bitwise at every injection point",
        not failures,
        f"{runs - len(failures)}/{runs} runs bitwise"
        + (f"; first failure: {failures[0]}" if failures else ""),
    ))

    # Stuck replica: the watchdog must declare it dead and the fleet
    # must re-serve its swallowed batches bitwise.
    stuck_time = _injection_time(requests, 0.4)
    stuck_plan = FaultPlan(
        name="stuck-r0",
        specs=(FaultSpec(
            FaultKind.STUCK, FaultSite.REPLICA, replica=0,
            time=stuck_time, duration=0.02,
        ),),
    )
    stuck_run = fleet(stuck_plan.injector()).run(requests)
    stuck_report = stuck_run.replicas[0]
    stuck_bitwise, stuck_detail = _delivered_bitwise(reference, stuck_run)
    checks.append(Check(
        "stuck replica declared dead, work re-served bitwise",
        stuck_bitwise
        and stuck_report.stuck_declared
        and stuck_report.final_state is ReplicaState.DEAD
        and stuck_run.unaccounted == 0,
        f"{stuck_detail}; watchdog fired: {stuck_report.stuck_declared}",
    ))

    # Slow replica: latency faults stay inside their fault domain —
    # sibling breakers never open — and predictions stay bitwise.
    slow_time = _injection_time(requests, 0.3)
    slow_plan = FaultPlan(
        name="slow-r0",
        specs=(FaultSpec(
            FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0,
            time=slow_time, duration=0.05, factor=30.0,
        ),),
    )
    slow_run = fleet(slow_plan.injector()).run(requests)
    sibling_opened = any(
        any(tr.dst is BreakerState.OPEN for tr in rep.breaker_transitions)
        for rep in slow_run.replicas if rep.replica_id != 0
    )
    slow_bitwise, slow_detail = _delivered_bitwise(reference, slow_run)
    checks.append(Check(
        "slow replica isolated (siblings stay closed, bitwise)",
        slow_bitwise and not sibling_opened
        and slow_run.unaccounted == 0,
        f"{slow_detail}; sibling breaker opened: {sibling_opened}",
    ))

    # Rolling hot-swap under load: zero dropped in-flight batches, the
    # ⌈N/2⌉ live floor held, versions monotonic per acknowledgment,
    # and a stale follow-up swap rejected.
    swap_time = _injection_time(requests, 0.5)
    swap_fleet = fleet()
    swap_fleet.schedule_swap(swap_time, snapshot_v2)
    # Re-offering the v1 snapshot after v2 was acknowledged is the
    # stale-swap case: it must be rejected, not installed.
    swap_fleet.schedule_swap(swap_time * 1.2, snapshot_v1)
    swap_run = swap_fleet.run(requests)
    swap_ok = (
        len(swap_run.swaps) == 1
        and swap_run.swaps[0].completed
        and swap_run.swaps[0].dropped_in_flight == 0
        and swap_run.swaps[0].min_live_observed
        >= swap_run.swaps[0].min_live_floor
        and swap_run.final_version == 2
        and swap_run.stale_swaps_rejected == 1
        and swap_run.unaccounted == 0
        and not swap_run.shed_ids
    )
    completed_at = (
        swap_run.swaps[0].completed_at if swap_run.swaps else None
    )
    monotonic = completed_at is not None and all(
        batch.model_version == 2
        for batch in swap_run.served_batches
        if batch.start_time > completed_at
    )
    versions = sorted(swap_run.report.requests_per_version)
    checks.append(Check(
        "rolling swap: zero drops, live floor held, stale rejected",
        swap_ok and monotonic,
        f"served versions {versions}, "
        f"min live {swap_run.swaps[0].min_live_observed if swap_run.swaps else '-'}"
        f"/floor {swap_run.swaps[0].min_live_floor if swap_run.swaps else '-'}, "
        f"{swap_run.stale_swaps_rejected} stale rejected",
    ))
    return outcome
