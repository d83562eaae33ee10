"""Health probing for the replicated serving fleet.

The :class:`HealthMonitor` is the fleet's observability plane: on
every probe tick (driven by the deterministic Simulator, never wall
clock) it snapshots each replica's state — executor lifecycle, breaker
state, in-flight depth, EWMA completion latency — into an append-only
:class:`ReplicaHealth` history, and runs the *stuck watchdog*: a
replica whose oldest in-flight batch has aged past
:data:`STUCK_TIMEOUT` is declared dead so the router can redirect its
work.  The watchdog is what turns a silent fault (a replica that
accepts batches but never completes them) into an explicit crash the
fleet already knows how to survive.

Health rows feed two consumers: the :class:`~repro.serving.router.
FleetRouter` ranks replicas by the same load signals the monitor
records, and the autoscaler reads the recent completion latencies to
measure SLO headroom.  Everything here is passive bookkeeping — the
fleet event loop supplies every timestamp — so two runs of the same
scenario produce byte-identical health histories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.resilience.circuit import BreakerState

__all__ = [
    "DEGRADED_LATENCY",
    "EWMA_ALPHA",
    "PROBE_INTERVAL",
    "STUCK_TIMEOUT",
    "HealthStatus",
    "ReplicaHealth",
    "HealthMonitor",
]

#: Interval between probe ticks on the simulated clock (seconds).
PROBE_INTERVAL = 2e-3
#: Oldest-in-flight age (seconds) beyond which a replica is declared
#: stuck and treated as crashed (its batches are redirected).
STUCK_TIMEOUT = 0.05
#: EWMA smoothing factor for per-replica completion latency.
EWMA_ALPHA = 0.3
#: EWMA latency (seconds) above which a live replica reports DEGRADED.
DEGRADED_LATENCY = 0.02


class HealthStatus(str, enum.Enum):
    """Coarse per-replica verdict derived from one probe observation."""

    HEALTHY = "healthy"       #: live, breaker closed, latency nominal
    DEGRADED = "degraded"     #: live but breaker half-open or latency high
    UNHEALTHY = "unhealthy"   #: live but breaker open (no primary traffic)
    DEAD = "dead"             #: crashed, stuck-declared, or retired


@dataclass(frozen=True)
class ReplicaHealth:
    """One probe-tick observation of one replica."""

    time: float
    replica_id: int
    status: HealthStatus
    breaker_state: BreakerState
    in_flight: int
    ewma_latency: float
    completed_batches: int


class HealthMonitor:
    """Append-only health historian plus stuck watchdog.

    The fleet event loop calls :meth:`record_completion` on every batch
    completion and :meth:`observe` on every probe tick; the monitor
    never schedules events itself.
    """

    def __init__(self) -> None:
        self.history: List[ReplicaHealth] = []
        self._ewma: Dict[int, float] = {}
        self._completed: Dict[int, int] = {}

    # -- completion feed -----------------------------------------------
    def record_completion(self, replica_id: int, latency: float) -> None:
        """Fold one batch's worst request latency into the EWMA."""
        previous = self._ewma.get(replica_id)
        if previous is None:
            self._ewma[replica_id] = latency
        else:
            self._ewma[replica_id] = (
                EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * previous
            )
        self._completed[replica_id] = self._completed.get(replica_id, 0) + 1

    # -- probe tick ----------------------------------------------------
    def classify(
        self,
        alive: bool,
        breaker_state: BreakerState,
        ewma_latency: float,
    ) -> HealthStatus:
        """The status verdict for one observation (pure function)."""
        if not alive:
            return HealthStatus.DEAD
        if breaker_state is BreakerState.OPEN:
            return HealthStatus.UNHEALTHY
        if (
            breaker_state is BreakerState.HALF_OPEN
            or ewma_latency > DEGRADED_LATENCY
        ):
            return HealthStatus.DEGRADED
        return HealthStatus.HEALTHY

    def observe(
        self,
        now: float,
        replica_id: int,
        alive: bool,
        breaker_state: BreakerState,
        in_flight: int,
    ) -> ReplicaHealth:
        """Record and return one probe observation."""
        ewma = self._ewma.get(replica_id, 0.0)
        row = ReplicaHealth(
            time=now,
            replica_id=replica_id,
            status=self.classify(alive, breaker_state, ewma),
            breaker_state=breaker_state,
            in_flight=in_flight,
            ewma_latency=ewma,
            completed_batches=self._completed.get(replica_id, 0),
        )
        self.history.append(row)
        return row

    def is_stuck(self, oldest_start: float, now: float) -> bool:
        """Watchdog: has an in-flight batch aged past the timeout?"""
        return now - oldest_start > STUCK_TIMEOUT
