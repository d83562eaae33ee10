"""Resilience layer: deterministic chaos, crash recovery, degradation.

Answers the production question the rest of the repo leaves open: what
happens when a pipeline stage crashes, a queue stalls, a checkpoint is
torn mid-write, or the serving path breaches its SLO?  Every failure
here is *injected deterministically* (seeded
:class:`~repro.resilience.faults.FaultPlan` over the existing
TraceProbe/queue/SimClock seams) and every recovery is *provable*
(bitwise-identical loss trajectories after rollback-and-replay,
bounded-staleness degraded serving).  The serving degradation ladder
itself runs in :mod:`repro.serving.fleet`; this package supplies its
policy, circuit breaker and fault injection.  See DESIGN.md §10.
"""

from repro.resilience.chaos import (
    FAULT_PLANS,
    FLEET_CHAOS_PLANS,
    ChaosCheck,
    ChaosHarnessConfig,
    ChaosOutcome,
    FleetChaosConfig,
    resume_determinism_check,
    run_chaos,
    run_fleet_chaos,
)
from repro.resilience.checkpoint import (
    CheckpointStore,
    NoCheckpointError,
    TrainerState,
    capture_trainer_arrays,
    restore_trainer_arrays,
)
from repro.resilience.circuit import (
    BreakerConfig,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.degradation import DegradationPolicy
from repro.resilience.faults import (
    FaultError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultProbe,
    FaultRecord,
    FaultSite,
    FaultSpec,
    FaultyQueue,
    H2DCopyError,
    InjectedCrash,
    QueueStallTimeout,
)
from repro.resilience.supervisor import (
    PipelineSupervisor,
    RecoveryBudgetExceeded,
    RecoveryReport,
    RetryPolicy,
)

__all__ = [
    "FAULT_PLANS",
    "FLEET_CHAOS_PLANS",
    "ChaosCheck",
    "ChaosHarnessConfig",
    "ChaosOutcome",
    "FleetChaosConfig",
    "run_chaos",
    "run_fleet_chaos",
    "resume_determinism_check",
    "CheckpointStore",
    "NoCheckpointError",
    "TrainerState",
    "capture_trainer_arrays",
    "restore_trainer_arrays",
    "BreakerConfig",
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "DegradationPolicy",
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultProbe",
    "FaultRecord",
    "FaultSite",
    "FaultSpec",
    "FaultyQueue",
    "H2DCopyError",
    "InjectedCrash",
    "QueueStallTimeout",
    "PipelineSupervisor",
    "RecoveryBudgetExceeded",
    "RecoveryReport",
    "RetryPolicy",
]
