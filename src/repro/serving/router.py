"""Health-aware dispatch and redirect policy for the serving fleet.

The :class:`FleetRouter` decides, for each micro-batch popped off the
shared :class:`~repro.serving.fleet.BatchingQueue`, which
:class:`~repro.serving.fleet.ReplicaExecutor` serves it:

* **admission control** — a replica is a candidate only while it is
  admitting (LIVE, not draining for a swap or retirement) and has
  fewer than ``max_in_flight`` batches outstanding;
* **load-aware ranking** — candidates are ordered by breaker state
  (CLOSED before HALF_OPEN; OPEN replicas are only eligible once their
  cooldown elapses), then current in-flight depth, then replica id for
  a deterministic tie-break;
* **breaker gate** — the first ranked candidate whose own
  :class:`~repro.resilience.circuit.CircuitBreaker` ``allow``\\ s the
  batch wins.  In HALF_OPEN, ``allow`` *claims* the single probe slot,
  so :meth:`FleetRouter.select` must only be called when the caller is
  committed to dispatching a batch to the returned replica.

When a replica crashes (or is stuck-declared), its in-flight batches
come back to the router: :meth:`plan_redirect` either requeues the
batch — after the capped, seeded-jitter backoff of the shared
:class:`~repro.resilience.supervisor.RetryPolicy` — or sheds it once
its redirect budget is spent.  Every decision is appended to
:attr:`FleetRouter.redirects`, making the failure story replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from repro.resilience.circuit import BreakerState, CircuitBreaker
from repro.resilience.supervisor import RetryPolicy
from repro.utils.validation import check_positive

__all__ = [
    "AdmissionConfig",
    "RedirectDecision",
    "RedirectRecord",
    "FleetRouter",
]


class RoutableReplica(Protocol):
    """The slice of a replica executor the router routes on."""

    replica_id: int
    breaker: CircuitBreaker

    @property
    def in_flight_count(self) -> int: ...

    def admits(self) -> bool: ...


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-replica admission and redirect budgets."""

    #: Batches a single replica may have outstanding (its worker depth).
    max_in_flight: int = 1
    #: Redirect attempts per batch before its requests are shed.
    max_redirects: int = 3

    def __post_init__(self) -> None:
        check_positive(self.max_in_flight, "max_in_flight")
        if self.max_redirects < 0:
            raise ValueError(
                f"max_redirects must be >= 0, got {self.max_redirects}"
            )


@dataclass(frozen=True)
class RedirectDecision:
    """What to do with a batch orphaned by a replica failure."""

    #: "requeue" (retry after ``delay``) or "shed" (budget exhausted).
    action: str
    #: Seeded-jitter backoff before the batch re-enters the queue.
    delay: float = 0.0


@dataclass(frozen=True)
class RedirectRecord:
    """One redirect (or shed) decision, for the outcome report."""

    time: float
    batch_id: int
    from_replica: int
    attempt: int
    action: str
    delay: float


#: Deterministic ranking: CLOSED replicas first, then HALF_OPEN, then
#: OPEN (which allow() will usually still refuse), then by load.
_BREAKER_RANK = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


class FleetRouter:
    """Deterministic per-batch dispatch and redirect policy."""

    def __init__(
        self,
        admission: AdmissionConfig | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.admission = admission or AdmissionConfig()
        self.retry = retry or RetryPolicy(
            max_restarts=self.admission.max_redirects,
            base_delay=1e-3,
            max_delay=1e-2,
        )
        self.redirects: List[RedirectRecord] = []
        self.dispatched: int = 0

    # -- dispatch ------------------------------------------------------
    def candidates(
        self, replicas: Sequence[RoutableReplica]
    ) -> List[RoutableReplica]:
        """Admitting, under-capacity replicas in dispatch-preference order."""
        eligible = [
            r for r in replicas
            if r.admits()
            and r.in_flight_count < self.admission.max_in_flight
        ]
        eligible.sort(
            key=lambda r: (
                _BREAKER_RANK[r.breaker.state],
                r.in_flight_count,
                r.replica_id,
            )
        )
        return eligible

    def select(
        self, replicas: Sequence[RoutableReplica], now: float
    ) -> Optional[RoutableReplica]:
        """The replica that should serve the next batch, or ``None``.

        Walks the ranked candidates and returns the first whose breaker
        admits traffic at ``now``.  A ``True`` from a HALF_OPEN breaker
        claims its probe slot, so call this only with a batch in hand —
        the caller must dispatch to the returned replica.
        """
        for replica in self.candidates(replicas):
            if replica.breaker.allow(now):
                self.dispatched += 1
                return replica
        return None

    # -- redirect ------------------------------------------------------
    def plan_redirect(
        self, batch_id: int, from_replica: int, attempt: int, now: float
    ) -> RedirectDecision:
        """Redirect-or-shed for one orphaned batch (``attempt`` is 1-based).

        The delay reuses the supervisor's :class:`RetryPolicy` backoff:
        capped exponential in the attempt number with seeded jitter, so
        a redirect storm spreads deterministically instead of
        thundering back into the queue at one instant.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        if attempt > self.admission.max_redirects:
            decision = RedirectDecision(action="shed", delay=0.0)
        else:
            decision = RedirectDecision(
                action="requeue", delay=self.retry.backoff(attempt)
            )
        self.redirects.append(
            RedirectRecord(
                time=now,
                batch_id=batch_id,
                from_replica=from_replica,
                attempt=attempt,
                action=decision.action,
                delay=decision.delay,
            )
        )
        return decision
