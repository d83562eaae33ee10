"""The serving engine: N replica executors, one queue, zero shared fate.

This is the repo's only serving event loop.  A :class:`ServingFleet`
runs N :class:`ReplicaExecutor`\\ s — each with its own
:class:`~repro.resilience.circuit.CircuitBreaker`, in-flight table,
lifecycle state and degradation ladder — pulling
micro-batches from one shared
:class:`BatchingQueue`, with dispatch decided by the health-aware
:class:`~repro.serving.router.FleetRouter`.  One replica crashing,
sticking, or tripping its breaker redirects *its* work; it never
trips the fleet.  A single server is the ``num_replicas=1`` fleet
(``AdmissionConfig.max_in_flight`` is its worker-pool depth).

A replica's fault domain is the state that can differ between
replicas, not a private copy of bytes that cannot: the immutable part
of a model — restored MLP parameters, TT cores / codec arrays, the
reconstructed hot-row tables — is materialized once per
:class:`~repro.serving.snapshot.ModelSnapshot` and hot-row map, marked
read-only, and that one :class:`~repro.serving.server.ServingModel` is
handed to every replica, every ``fleet.run``, every swap install and
every fallback
(:meth:`~repro.serving.snapshot.ModelSnapshot.serving_model`).  It
keeps no per-call state: a batch's hot/cold lookup split is read off
the batch (:meth:`~repro.serving.server.ServingModel.lookup_counts`).

The degradation ladder lives in :meth:`_FleetRun.service_cycle`:
**healthy** — a replica whose breaker allows it serves the batch on
its primary model; **degraded** — every breaker refuses, so a replica
answers from its stale fallback snapshot while that is within
``max_staleness``; **shed** — a replica has room but no breaker
allows it and no fallback is fresh enough, so the head batch's
requests are rejected outright.  Batches only *wait* when no replica
has room (all busy or draining): capacity frees on the next
completion, whereas a batch parked behind an open breaker just ages
past the SLO and fails every HALF_OPEN probe it is later used for.

Determinism is load-bearing, not cosmetic.  Everything runs on the
discrete-event :class:`~repro.system.simclock.Simulator`, and batch
*formation* is deliberately decoupled from replica capacity: ready
micro-batches move into the shared queue on arrival/deadline events
alone, so the (batch id → request ids) composition of a run depends
only on the request stream and the batching policy — not on which
replicas are up.  A redirected batch is re-dispatched *intact*, and
every replica serves from the same read-only arrays of the same
:class:`~repro.serving.snapshot.ModelSnapshot`, so killing any single
replica mid-traffic yields bitwise-identical predictions for every
delivered request versus the uninterrupted run.  That is the fleet's
chaos invariant, and ``repro chaos --plan fleet-replica-sweep``
checks it at every injection point.

Rolling hot-swap propagates a new snapshot one replica at a time:
each target drains its in-flight batches, installs the new version
(guarded — a stale snapshot never displaces a newer
acknowledged one; the new snapshot is materialized by the first
install only), and rejoins before the next target drains; the fleet never has
fewer than ⌈N/2⌉ replicas admitting.  SLO-headroom autoscaling rides
the same health-probe ticks: sustained latency above the high
watermark adds a replica from the current snapshot, sustained
headroom below the low watermark drains and retires one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import Batch
from repro.resilience.circuit import (
    BreakerConfig,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.degradation import DegradationPolicy
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.supervisor import RetryPolicy
from repro.serving.batcher import BatchingPolicy, MicroBatch, MicroBatcher
from repro.serving.health import PROBE_INTERVAL, HealthMonitor, ReplicaHealth
from repro.serving.metrics import RequestResult, ServedBatch, SLOReport
from repro.serving.requests import InferenceRequest, coalesce_requests
from repro.serving.router import (
    AdmissionConfig,
    FleetRouter,
    RedirectRecord,
)
from repro.serving.server import HotRowMap, ServiceTimeModel, ServingModel
from repro.serving.snapshot import ModelSnapshot
from repro.system.queues import BoundedQueue
from repro.system.simclock import Simulator
from repro.utils.validation import check_positive

__all__ = [
    "ReplicaState",
    "BatchingQueue",
    "FleetBatch",
    "ReplicaExecutor",
    "AutoscalePolicy",
    "AutoscaleEvent",
    "FleetConfig",
    "ReplicaReport",
    "SwapReport",
    "FleetOutcome",
    "ServingFleet",
]


class ReplicaState(str, enum.Enum):
    """Replica lifecycle states."""

    LIVE = "live"          #: admitting new batches
    DRAINING = "draining"  #: finishing in-flight work before swap/retire
    DEAD = "dead"          #: crashed or stuck-declared; never revived
    RETIRED = "retired"    #: scaled down cleanly after draining


@dataclass
class FleetBatch:
    """One formed micro-batch travelling through the fleet.

    Identity (``batch_id``) is assigned at formation time, which is
    independent of replica availability — so the id→composition map is
    a pure function of the request stream and batching policy.
    """

    batch_id: int
    micro: MicroBatch
    #: Redirect attempts consumed (0 = never orphaned).
    attempts: int = 0

    @property
    def size(self) -> int:
        return self.micro.size


class BatchingQueue(BoundedQueue[FleetBatch]):
    """Shared queue between the batcher and the replica executors.

    A :class:`~repro.system.queues.BoundedQueue` plus one fleet-specific
    affordance: :meth:`put_front` re-inserts a redirected batch at the
    head, bypassing the capacity bound — a batch that was already
    admitted must never be dropped by its own retry, and orphaned work
    should not queue behind fresh arrivals.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.max_depth = 0
        self.redirect_puts = 0

    def put(self, item: FleetBatch) -> None:
        super().put(item)
        self.max_depth = max(self.max_depth, len(self))

    def put_front(self, item: FleetBatch) -> None:
        """Head insert for redirects (exempt from the capacity bound)."""
        self._items.appendleft(item)
        self.redirect_puts += 1
        self.max_depth = max(self.max_depth, len(self))


@dataclass
class _InFlight:
    """One batch being served by one replica (predictions precomputed)."""

    token: int
    fleet_batch: FleetBatch
    coalesced: Batch
    predictions: np.ndarray
    hot_lookups: int
    cold_lookups: int
    start: float
    duration: float
    model_version: int
    is_primary: bool
    #: False when a stuck window swallowed the completion event.
    completion_scheduled: bool


class ReplicaExecutor:
    """One fault domain: a model, a breaker, a degradation ladder.

    ``snapshot`` and ``hot_rows`` select the shared, read-only serving
    model (:meth:`ModelSnapshot.serving_model`); what the executor owns
    is its breaker, its in-flight table and its lifecycle state.

    The executor is passive — the fleet event loop drives it with
    explicit timestamps.  ``begin`` runs the real DLRM forward and
    registers the in-flight record; ``complete`` retires it by token
    (a token dispatched before a crash simply finds nothing to retire,
    which is how already-scheduled completion events for a dead
    replica become harmless no-ops).
    """

    def __init__(
        self,
        replica_id: int,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap],
        breaker_config: BreakerConfig,
        service_time: ServiceTimeModel,
    ) -> None:
        self.replica_id = replica_id
        self.serving_model = snapshot.serving_model(hot_rows)
        self.breaker = CircuitBreaker(breaker_config)
        self.service_time = service_time
        self.state = ReplicaState.LIVE
        #: Why the replica is draining: "swap" or "retire".
        self.pending_action: Optional[str] = None
        self.stuck_declared = False
        self.crash_time: Optional[float] = None
        self.batches_served = 0
        self.requests_served = 0
        self.fallback_batches = 0
        self.swap_times: List[Tuple[int, float]] = []
        self._in_flight: Dict[int, _InFlight] = {}
        self._next_token = 0
        self._fallback: Optional[ServingModel] = None
        self._fallback_time = 0.0

    # -- routing surface (RoutableReplica protocol) --------------------
    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def admits(self) -> bool:
        return self.state == ReplicaState.LIVE

    @property
    def alive(self) -> bool:
        return self.state in (ReplicaState.LIVE, ReplicaState.DRAINING)

    @property
    def version(self) -> int:
        return self.serving_model.version

    # -- degradation ladder --------------------------------------------
    def set_fallback(
        self,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap],
        time: float,
    ) -> None:
        """Register this replica's bounded-staleness fallback model."""
        self._fallback = snapshot.serving_model(hot_rows)
        self._fallback_time = float(time)

    def fallback_age(self, now: float) -> Optional[float]:
        if self._fallback is None:
            return None
        return now - self._fallback_time

    # -- serve ---------------------------------------------------------
    def begin(
        self,
        fleet_batch: FleetBatch,
        now: float,
        use_fallback: bool,
        injector: Optional[FaultInjector],
    ) -> _InFlight:
        """Run the forward pass and open an in-flight record."""
        if not self.alive:
            raise RuntimeError(
                f"dispatch to non-alive replica {self.replica_id}"
            )
        model = self._fallback if use_fallback else self.serving_model
        assert model is not None
        coalesced = coalesce_requests(fleet_batch.micro.requests)
        predictions = model.predict_proba(coalesced)
        hot, cold = model.lookup_counts(coalesced)
        duration = self.service_time.duration(fleet_batch.size, hot, cold)
        stuck = False
        if injector is not None and not use_fallback:
            duration *= injector.slowdown_factor(now)
            duration *= injector.replica_slowdown_factor(
                self.replica_id, now
            )
            stuck = injector.replica_stuck(self.replica_id, now)
        token = self._next_token
        self._next_token += 1
        record = _InFlight(
            token=token,
            fleet_batch=fleet_batch,
            coalesced=coalesced,
            predictions=predictions,
            hot_lookups=hot,
            cold_lookups=cold,
            start=now,
            duration=duration,
            model_version=model.version,
            is_primary=not use_fallback,
            completion_scheduled=not stuck,
        )
        self._in_flight[token] = record
        if use_fallback:
            self.fallback_batches += 1
        return record

    def complete(self, token: int) -> Optional[_InFlight]:
        """Retire an in-flight record; ``None`` if the replica lost it."""
        record = self._in_flight.pop(token, None)
        if record is None:
            return None
        self.batches_served += 1
        self.requests_served += record.fleet_batch.size
        return record

    def oldest_start(self) -> Optional[float]:
        """Start time of the oldest in-flight batch (watchdog input)."""
        if not self._in_flight:
            return None
        return min(
            self._in_flight[token].start
            for token in sorted(self._in_flight)
        )

    # -- lifecycle -----------------------------------------------------
    def kill(self, now: float) -> List[FleetBatch]:
        """Crash: return orphaned batches (token order) for redirect."""
        self.state = ReplicaState.DEAD
        self.pending_action = None
        self.crash_time = now
        orphans = [
            self._in_flight[token].fleet_batch
            for token in sorted(self._in_flight)
        ]
        self._in_flight.clear()
        return orphans

    def begin_drain(self, action: str) -> None:
        """Stop admitting; finish in-flight work, then swap or retire."""
        if self.state != ReplicaState.LIVE:
            raise RuntimeError(
                f"cannot drain replica {self.replica_id} in state "
                f"{self.state}"
            )
        self.state = ReplicaState.DRAINING
        self.pending_action = action

    def install(
        self,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap],
        now: float,
    ) -> None:
        """Swap in a drained replica's new model (version-guarded)."""
        if self._in_flight:
            raise RuntimeError(
                f"install on replica {self.replica_id} with "
                f"{len(self._in_flight)} batches in flight"
            )
        if snapshot.version <= self.serving_model.version:
            raise RuntimeError(
                f"stale install on replica {self.replica_id}: "
                f"v{snapshot.version} <= v{self.serving_model.version}"
            )
        effective = (
            hot_rows if hot_rows is not None
            else self.serving_model.hot_rows
        )
        self.serving_model = snapshot.serving_model(effective)
        self.swap_times.append((snapshot.version, now))
        self.state = ReplicaState.LIVE
        self.pending_action = None

    def retire(self) -> None:
        """Leave the fleet cleanly after draining (autoscale down)."""
        if self._in_flight:
            raise RuntimeError(
                f"retire on replica {self.replica_id} with work in flight"
            )
        self.state = ReplicaState.RETIRED
        self.pending_action = None


@dataclass(frozen=True)
class AutoscalePolicy:
    """SLO-headroom autoscaling knobs (evaluated on probe ticks)."""

    min_replicas: int = 1
    max_replicas: int = 8
    #: Scale up when the tick's worst completion latency exceeds
    #: ``high_watermark * slo_target``.
    high_watermark: float = 0.8
    #: Scale down after ``cooldown_ticks`` consecutive ticks below
    #: ``low_watermark * slo_target``.
    low_watermark: float = 0.25
    cooldown_ticks: int = 3

    def __post_init__(self) -> None:
        check_positive(self.min_replicas, "min_replicas")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if not 0.0 < self.low_watermark < self.high_watermark:
            raise ValueError(
                "need 0 < low_watermark < high_watermark, got "
                f"{self.low_watermark} / {self.high_watermark}"
            )
        check_positive(self.cooldown_ticks, "cooldown_ticks")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One autoscaling decision."""

    time: float
    action: str  #: "scale_up" or "scale_down"
    replica_id: int
    #: Worst completion latency in the tick window that triggered it.
    signal: float
    live_after: int


@dataclass(frozen=True)
class FleetConfig:
    """Everything that shapes a fleet run besides the model itself."""

    num_replicas: int = 2
    batching: BatchingPolicy = field(default_factory=BatchingPolicy)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    degradation: DegradationPolicy = field(
        default_factory=DegradationPolicy
    )
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_restarts=3, base_delay=1e-3, max_delay=1e-2,
        )
    )
    #: Shared-queue bound, in batches.
    queue_capacity: int = 256
    autoscale: Optional[AutoscalePolicy] = None

    def __post_init__(self) -> None:
        check_positive(self.num_replicas, "num_replicas")
        check_positive(self.queue_capacity, "queue_capacity")


@dataclass(frozen=True)
class ReplicaReport:
    """One replica's story across a fleet run."""

    replica_id: int
    final_state: str
    final_version: int
    batches_served: int
    requests_served: int
    fallback_batches: int
    crash_time: Optional[float]
    stuck_declared: bool
    swap_times: Tuple[Tuple[int, float], ...]
    breaker_transitions: Tuple[BreakerTransition, ...]
    final_breaker_state: BreakerState


@dataclass(frozen=True)
class SwapReport:
    """One rolling hot-swap's trajectory."""

    version: int
    started_at: float
    completed_at: Optional[float]
    #: (replica_id, install time) in propagation order.
    replica_times: Tuple[Tuple[int, float], ...]
    #: ⌈N/2⌉ floor the swap was required to respect.
    min_live_floor: int
    #: Fewest replicas admitting at any point during the swap.
    min_live_observed: int
    #: In-flight batches lost to the swap — must always be 0 (drains
    #: complete before install by construction; this field proves it).
    dropped_in_flight: int

    @property
    def completed(self) -> bool:
        return self.completed_at is not None


@dataclass(frozen=True)
class FleetOutcome:
    """Everything a fleet run produced."""

    report: SLOReport
    results: Tuple[RequestResult, ...]
    served_batches: Tuple[ServedBatch, ...]
    #: Rejected at the front door (bounded pending queue full).
    rejected_ids: Tuple[int, ...]
    #: Shed after exhausting redirects, or in a fleet-wide outage.
    shed_ids: Tuple[int, ...]
    redirects: Tuple[RedirectRecord, ...]
    replicas: Tuple[ReplicaReport, ...]
    swaps: Tuple[SwapReport, ...]
    stale_swaps_rejected: int
    #: Worst fallback age actually served (<= max_staleness always).
    max_fallback_age: float
    autoscale_events: Tuple[AutoscaleEvent, ...]
    health_history: Tuple[ReplicaHealth, ...]
    final_version: int
    queue_max_depth: int
    #: Admitted requests neither completed nor shed — 0 unless the
    #: accounting is broken (the chaos harness asserts on it).
    unaccounted: int

    def predictions_by_request(self) -> Dict[int, float]:
        return {r.request_id: r.prediction for r in self.results}

    def batch_compositions(self) -> Dict[int, Tuple[int, ...]]:
        """batch id → request ids, for cross-run composition checks."""
        return {
            b.batch_id: b.request_ids for b in self.served_batches
        }


@dataclass
class _ActiveSwap:
    """Mutable rolling-swap state while it propagates."""

    snapshot: ModelSnapshot
    hot_rows: Optional[HotRowMap]
    order: List[int]
    floor: int
    started_at: float
    index: int = 0
    replica_times: List[Tuple[int, float]] = field(default_factory=list)
    min_live_observed: int = 0
    dropped_in_flight: int = 0
    completed_at: Optional[float] = None

    def report(self) -> SwapReport:
        return SwapReport(
            version=self.snapshot.version,
            started_at=self.started_at,
            completed_at=self.completed_at,
            replica_times=tuple(self.replica_times),
            min_live_floor=self.floor,
            min_live_observed=self.min_live_observed,
            dropped_in_flight=self.dropped_in_flight,
        )


class ServingFleet:
    """N-replica serving tier with health-aware routing and hot-swap.

    Parameters
    ----------
    snapshot:
        The initial model.  It is materialized once, and every replica
        serves that one frozen state.
    hot_rows:
        Hot-row map of every replica's cached lookups; the hot-row
        tables are built once per snapshot and shared.
    config:
        Fleet shape: replica count, batching, admission,
        degradation, retry, and optional autoscaling.
    service_time:
        Deterministic per-batch latency model (shared by replicas).
    injector:
        Optional fault injector supplying replica crashes, stuck
        windows, per-replica and fleet-wide slowdowns.
    """

    def __init__(
        self,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap] = None,
        config: Optional[FleetConfig] = None,
        service_time: Optional[ServiceTimeModel] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.snapshot = snapshot
        self.hot_rows = hot_rows
        self.config = config or FleetConfig()
        self.service_time = service_time or ServiceTimeModel()
        self.injector = injector
        self._fallback: Optional[
            Tuple[ModelSnapshot, Optional[HotRowMap], float]
        ] = None
        self._swaps: List[
            Tuple[float, ModelSnapshot, Optional[HotRowMap],
                  Optional[FaultSpec]]
        ] = []

    def set_fallback(
        self,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap] = None,
        time: float = 0.0,
    ) -> None:
        """Give every replica the same bounded-staleness fallback."""
        if time < 0:
            raise ValueError(f"fallback time must be >= 0, got {time}")
        self._fallback = (snapshot, hot_rows, float(time))

    def schedule_swap(
        self,
        time: float,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap] = None,
        spec: Optional[FaultSpec] = None,
    ) -> None:
        """Start a rolling hot-swap to ``snapshot`` at simulated ``time``.

        ``spec`` ties the swap to a ``SWAP @ fleet`` fault for chaos
        accounting (the injector records it as fired when it starts).
        """
        if time < 0:
            raise ValueError(f"swap time must be >= 0, got {time}")
        self._swaps.append((float(time), snapshot, hot_rows, spec))

    def _make_executor(
        self,
        replica_id: int,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap],
    ) -> ReplicaExecutor:
        executor = ReplicaExecutor(
            replica_id=replica_id,
            snapshot=snapshot,
            hot_rows=hot_rows,
            breaker_config=self.config.degradation.breaker,
            service_time=self.service_time,
        )
        if self._fallback is not None:
            fb_snapshot, fb_hot, fb_time = self._fallback
            executor.set_fallback(fb_snapshot, fb_hot, fb_time)
        return executor

    def run(self, requests: Sequence[InferenceRequest]) -> FleetOutcome:
        """Serve a request stream to completion (one fresh fleet run)."""
        return _FleetRun(self, requests).execute()


class _FleetRun:
    """One execution of a fleet over one request stream."""

    def __init__(
        self, fleet: ServingFleet, requests: Sequence[InferenceRequest]
    ) -> None:
        self.fleet = fleet
        self.cfg = fleet.config
        self.requests = list(requests)
        self.sim = Simulator()
        self.batcher = MicroBatcher(self.cfg.batching)
        self.queue = BatchingQueue(self.cfg.queue_capacity)
        self.router = FleetRouter(self.cfg.admission, self.cfg.retry)
        self.monitor = HealthMonitor()
        self.replicas: List[ReplicaExecutor] = [
            fleet._make_executor(i, fleet.snapshot, fleet.hot_rows)
            for i in range(self.cfg.num_replicas)
        ]
        self.next_replica_id = self.cfg.num_replicas
        self.next_batch_id = 0
        self.outstanding = 0
        self.remaining_arrivals = len(self.requests)
        #: The run's one ledger: batches and results in completion order.
        self.served_batches: List[ServedBatch] = []
        self.results: List[RequestResult] = []
        self.rejected_ids: List[int] = []
        self.shed_ids: List[int] = []
        self.stale_swaps = 0
        self.fleet_version = fleet.snapshot.version
        self.current_snapshot = fleet.snapshot
        self.current_hot_rows = fleet.hot_rows
        self.active_swap: Optional[_ActiveSwap] = None
        self.swap_backlog: List[
            Tuple[ModelSnapshot, Optional[HotRowMap]]
        ] = []
        self.completed_swaps: List[_ActiveSwap] = []
        self.autoscale_events: List[AutoscaleEvent] = []
        self.recent_latencies: List[float] = []
        self.low_streak = 0
        self.probe_pending = False
        self.max_fallback_age = 0.0
        self.end_time = 0.0

    # -- liveness ------------------------------------------------------
    def _live_count(self) -> int:
        return sum(1 for r in self.replicas if r.state == ReplicaState.LIVE)

    def _any_alive(self) -> bool:
        return any(r.alive for r in self.replicas)

    def _active(self) -> bool:
        return (
            self.outstanding > 0
            or self.remaining_arrivals > 0
            or self.active_swap is not None
            or bool(self.swap_backlog)
        )

    # -- event handlers ------------------------------------------------
    def arrive(self, request: InferenceRequest) -> None:
        self.remaining_arrivals -= 1
        if self.batcher.offer(request, self.sim.now):
            self.outstanding += 1
            self.sim.schedule(
                self.cfg.batching.max_wait, self.service_cycle
            )
        else:
            self.rejected_ids.append(request.request_id)
        self.service_cycle()

    def service_cycle(self) -> None:
        """Form ready batches, then dispatch while capacity allows.

        Every traffic event (arrival, deadline, completion, crash,
        redirect, swap) ends here, so this is also where the run's end
        time is stamped: the report's duration spans the traffic, not
        the idle probe tick that may trail it.
        """
        self.end_time = self.sim.now
        progress = True
        while progress:
            progress = False
            # Formation is arrival/deadline-driven only (never gated on
            # replica capacity) so batch composition is fault-plan
            # independent — the bitwise chaos invariant rests on this.
            while (
                not self.queue.full()
                and self.batcher.ready(self.sim.now)
            ):
                micro = self.batcher.pop_batch(self.sim.now)
                assert micro is not None  # ready() just fired
                self.queue.put(
                    FleetBatch(batch_id=self.next_batch_id, micro=micro)
                )
                self.next_batch_id += 1
                progress = True
            while len(self.queue) > 0:
                use_fallback = False
                replica = self.router.select(self.replicas, self.sim.now)
                if replica is None:
                    replica = self._fallback_candidate()
                    use_fallback = True
                if replica is None:
                    if not self.router.candidates(self.replicas):
                        break  # all busy or draining: wait for capacity
                    # Room to serve, but every breaker refuses and no
                    # fallback is fresh enough.  Parking the batch is
                    # metastable (it ages past the SLO and fails the
                    # HALF_OPEN probe it is later used for), so shed.
                    self._shed_batch_requests(self.queue.get())
                    progress = True
                    continue
                assert isinstance(replica, ReplicaExecutor)
                self.dispatch(self.queue.get(), replica, use_fallback)
                progress = True
        if not self._any_alive():
            self._shed_backlog("fleet outage")

    def _fallback_candidate(self) -> Optional[ReplicaExecutor]:
        """A replica able to serve on its stale fallback, or ``None``."""
        bound = self.cfg.degradation.max_staleness
        eligible: List[ReplicaExecutor] = []
        for replica in self.replicas:
            if not replica.admits():
                continue
            if replica.in_flight_count >= self.cfg.admission.max_in_flight:
                continue
            age = replica.fallback_age(self.sim.now)
            if age is None or age > bound:
                continue
            eligible.append(replica)
        if not eligible:
            return None
        eligible.sort(key=lambda r: (r.in_flight_count, r.replica_id))
        chosen = eligible[0]
        age = chosen.fallback_age(self.sim.now)
        assert age is not None
        self.max_fallback_age = max(self.max_fallback_age, age)
        return chosen

    def dispatch(
        self,
        fleet_batch: FleetBatch,
        replica: ReplicaExecutor,
        use_fallback: bool,
    ) -> None:
        record = replica.begin(
            fleet_batch, self.sim.now, use_fallback, self.fleet.injector
        )
        if record.completion_scheduled:
            self.sim.schedule(
                record.duration,
                lambda r=replica, t=record.token: self.complete(r, t),
            )
        # else: a stuck window swallowed the completion; the health
        # watchdog will declare the replica dead and redirect.

    def complete(self, replica: ReplicaExecutor, token: int) -> None:
        record = replica.complete(token)
        if record is None:
            return  # the replica crashed; this batch was redirected
        now = self.sim.now
        micro = record.fleet_batch.micro
        self.served_batches.append(
            ServedBatch(
                batch_id=record.fleet_batch.batch_id,
                request_ids=tuple(
                    r.request_id for r in micro.requests
                ),
                batch=record.coalesced,
                model_version=record.model_version,
                worker_id=replica.replica_id,
                start_time=record.start,
                finish_time=now,
                predictions=record.predictions,
                hot_lookups=record.hot_lookups,
                cold_lookups=record.cold_lookups,
            )
        )
        worst = 0.0
        for request, prob in zip(micro.requests, record.predictions):
            latency = now - request.arrival_time
            worst = max(worst, latency)
            self.results.append(
                RequestResult(
                    request_id=request.request_id,
                    arrival_time=request.arrival_time,
                    finish_time=now,
                    model_version=record.model_version,
                    prediction=float(prob),
                )
            )
        if record.is_primary:
            if worst > self.cfg.degradation.slo_target:
                replica.breaker.record_failure(now)
            else:
                replica.breaker.record_success(now)
        self.monitor.record_completion(replica.replica_id, worst)
        self.recent_latencies.append(worst)
        self.outstanding -= record.fleet_batch.size
        self.advance_swap()
        self._advance_retire(replica)
        self.service_cycle()

    def crash(self, replica_id: int, spec: FaultSpec) -> None:
        replica = self._replica_by_id(replica_id)
        injector = self.fleet.injector
        if replica is None or not replica.alive:
            if injector is not None:
                injector.fleet_fired(
                    spec, self.sim.now, "target already gone"
                )
            return
        orphans = replica.kill(self.sim.now)
        if injector is not None:
            injector.fleet_fired(
                spec, self.sim.now,
                f"killed with {len(orphans)} batches in flight",
            )
        for fleet_batch in orphans:
            self._redirect(fleet_batch, replica)
        self.advance_swap()
        self.service_cycle()

    def _declare_stuck(self, replica: ReplicaExecutor) -> None:
        replica.stuck_declared = True
        orphans = replica.kill(self.sim.now)
        for fleet_batch in orphans:
            self._redirect(fleet_batch, replica)

    def _redirect(
        self, fleet_batch: FleetBatch, from_replica: ReplicaExecutor
    ) -> None:
        fleet_batch.attempts += 1
        decision = self.router.plan_redirect(
            fleet_batch.batch_id,
            from_replica.replica_id,
            fleet_batch.attempts,
            self.sim.now,
        )
        if decision.action == "shed":
            self._shed_batch_requests(fleet_batch)
            return
        self.sim.schedule(
            decision.delay,
            lambda fb=fleet_batch: self._requeue(fb),
        )

    def _requeue(self, fleet_batch: FleetBatch) -> None:
        self.queue.put_front(fleet_batch)
        self.service_cycle()

    def _shed_batch_requests(self, fleet_batch: FleetBatch) -> None:
        for request in fleet_batch.micro.requests:
            self.shed_ids.append(request.request_id)
        self.outstanding -= fleet_batch.size

    def _shed_backlog(self, reason: str) -> None:
        """Fleet-wide outage: nothing alive, so shed all pending work."""
        while len(self.queue) > 0:
            self._shed_batch_requests(self.queue.get())
        while not self.batcher.empty():
            micro = self.batcher.force_pop(self.sim.now)
            assert micro is not None
            self._shed_batch_requests(
                FleetBatch(batch_id=self.next_batch_id, micro=micro)
            )
            self.next_batch_id += 1

    # -- probe loop ----------------------------------------------------
    def _maybe_schedule_probe(self) -> None:
        if self.probe_pending or not self._active():
            return
        self.probe_pending = True
        self.sim.schedule(PROBE_INTERVAL, self.probe_tick)

    def probe_tick(self) -> None:
        self.probe_pending = False
        if not self._active():
            return  # the run finished since this tick was scheduled
        now = self.sim.now
        for replica in self.replicas:
            self.monitor.observe(
                now,
                replica.replica_id,
                replica.alive,
                replica.breaker.state,
                replica.in_flight_count,
            )
        # Stuck watchdog: a replica whose oldest in-flight batch aged
        # past the timeout is declared dead and its work redirected.
        for replica in self.replicas:
            if not replica.alive:
                continue
            oldest = replica.oldest_start()
            if oldest is not None and self.monitor.is_stuck(oldest, now):
                self._declare_stuck(replica)
        self.advance_swap()
        self._autoscale_tick()
        self.service_cycle()
        self._maybe_schedule_probe()

    # -- rolling swap --------------------------------------------------
    def start_swap(
        self,
        snapshot: ModelSnapshot,
        hot_rows: Optional[HotRowMap],
        spec: Optional[FaultSpec],
    ) -> None:
        if spec is not None and self.fleet.injector is not None:
            self.fleet.injector.fleet_fired(
                spec, self.sim.now, "forced rolling swap"
            )
        if snapshot.version <= self.fleet_version:
            # Monotonicity guard: an acknowledged newer snapshot is
            # never displaced by a stale one.
            self.stale_swaps += 1
            return
        if self.active_swap is not None:
            if snapshot.version <= self.active_swap.snapshot.version:
                self.stale_swaps += 1
                return
            self.swap_backlog.append((snapshot, hot_rows))
            return
        order = [r.replica_id for r in self.replicas if r.alive]
        self.active_swap = _ActiveSwap(
            snapshot=snapshot,
            hot_rows=hot_rows,
            order=order,
            floor=math.ceil(len(order) / 2),
            started_at=self.sim.now,
            min_live_observed=self._live_count(),
        )
        self.advance_swap()
        self.service_cycle()

    def advance_swap(self) -> None:
        """Push the rolling swap as far as current drain state allows."""
        swap = self.active_swap
        if swap is None:
            return
        while True:
            if swap.index >= len(swap.order):
                self._finish_swap(swap)
                return
            replica = self._replica_by_id(swap.order[swap.index])
            if (
                replica is None
                or not replica.alive
                or replica.version >= swap.snapshot.version
            ):
                # Crashed mid-roll, retired, or already current: skip.
                swap.index += 1
                continue
            if replica.state == ReplicaState.LIVE:
                live = self._live_count()
                alive = sum(1 for r in self.replicas if r.alive)
                # The ⌈N/2⌉ floor can never exceed alive-1, or a swap
                # would wedge once crashes (or N=1) leave too few
                # replicas to both drain one and keep the floor.  A
                # one-replica fleet drains anyway: batches wait in the
                # shared queue during the brief install (DRAINING
                # counts as alive, so the outage shed does not fire).
                effective_floor = min(swap.floor, max(alive - 1, 0))
                if live - 1 < effective_floor:
                    return  # draining one more would breach the floor
                replica.begin_drain("swap")
                swap.min_live_observed = min(
                    swap.min_live_observed, self._live_count()
                )
            if replica.pending_action != "swap":
                return  # draining for retirement; wait it out
            if replica.in_flight_count > 0:
                return  # wait for the drain to finish
            replica.install(swap.snapshot, swap.hot_rows, self.sim.now)
            swap.replica_times.append((replica.replica_id, self.sim.now))
            swap.index += 1

    def _finish_swap(self, swap: _ActiveSwap) -> None:
        swap.completed_at = self.sim.now
        self.completed_swaps.append(swap)
        self.fleet_version = swap.snapshot.version
        self.current_snapshot = swap.snapshot
        if swap.hot_rows is not None:
            self.current_hot_rows = swap.hot_rows
        self.active_swap = None
        if self.swap_backlog:
            snapshot, hot_rows = self.swap_backlog.pop(0)
            self.start_swap(snapshot, hot_rows, None)

    # -- autoscaling ---------------------------------------------------
    def _autoscale_tick(self) -> None:
        policy = self.cfg.autoscale
        window = self.recent_latencies
        self.recent_latencies = []
        if policy is None or not window:
            return
        signal = max(window)
        slo = self.cfg.degradation.slo_target
        alive = sum(1 for r in self.replicas if r.alive)
        if signal > policy.high_watermark * slo:
            self.low_streak = 0
            if alive < policy.max_replicas:
                self._scale_up(signal)
        elif signal < policy.low_watermark * slo:
            self.low_streak += 1
            if (
                self.low_streak >= policy.cooldown_ticks
                and self._live_count() > policy.min_replicas
                and self.active_swap is None
            ):
                self._scale_down(signal)
                self.low_streak = 0
        else:
            self.low_streak = 0

    def _scale_up(self, signal: float) -> None:
        replica_id = self.next_replica_id
        self.next_replica_id += 1
        executor = self.fleet._make_executor(
            replica_id, self.current_snapshot, self.current_hot_rows
        )
        self.replicas.append(executor)
        self.autoscale_events.append(
            AutoscaleEvent(
                time=self.sim.now,
                action="scale_up",
                replica_id=replica_id,
                signal=signal,
                live_after=self._live_count(),
            )
        )

    def _scale_down(self, signal: float) -> None:
        live = [r for r in self.replicas if r.state == ReplicaState.LIVE]
        victim = max(live, key=lambda r: r.replica_id)
        victim.begin_drain("retire")
        self.autoscale_events.append(
            AutoscaleEvent(
                time=self.sim.now,
                action="scale_down",
                replica_id=victim.replica_id,
                signal=signal,
                live_after=self._live_count(),
            )
        )
        self._advance_retire(victim)

    def _advance_retire(self, replica: ReplicaExecutor) -> None:
        if (
            replica.state == ReplicaState.DRAINING
            and replica.pending_action == "retire"
            and replica.in_flight_count == 0
        ):
            replica.retire()

    # -- helpers -------------------------------------------------------
    def _replica_by_id(
        self, replica_id: int
    ) -> Optional[ReplicaExecutor]:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        return None

    # -- run -----------------------------------------------------------
    def execute(self) -> FleetOutcome:
        first_arrival = (
            self.requests[0].arrival_time if self.requests else 0.0
        )
        for request in self.requests:
            self.sim.schedule(
                request.arrival_time, lambda r=request: self.arrive(r)
            )
        if self.fleet.injector is not None:
            for time, replica_id, spec in (
                self.fleet.injector.replica_crashes()
            ):
                self.sim.schedule(
                    time,
                    lambda rid=replica_id, s=spec: self.crash(rid, s),
                )
        for time, snapshot, hot_rows, spec in sorted(
            self.fleet._swaps, key=lambda s: s[0]
        ):
            self.sim.schedule(
                time,
                lambda sn=snapshot, h=hot_rows, sp=spec: self.start_swap(
                    sn, h, sp
                ),
            )
        self._maybe_schedule_probe()
        self.sim.run()
        # Safety net: anything still queued after the event heap drains
        # (e.g. every replica died) is shed so accounting closes.
        if len(self.queue) > 0 or not self.batcher.empty():
            self._shed_backlog("post-run sweep")
        return self._build_outcome(first_arrival)

    def _build_outcome(self, first_arrival: float) -> FleetOutcome:
        report = SLOReport.from_records(
            self.results,
            self.served_batches,
            rejected=len(self.rejected_ids) + len(self.shed_ids),
            num_swaps=len(self.completed_swaps),
            duration=max(self.end_time - first_arrival, 0.0),
            max_queue_depth=max(
                self.batcher.max_depth, self.queue.max_depth
            ),
            num_hot_rows=(
                self.replicas[0].serving_model.num_hot_rows
                if self.replicas else 0
            ),
        )
        swaps = [s.report() for s in self.completed_swaps]
        if self.active_swap is not None:
            swaps.append(self.active_swap.report())
        replica_reports = tuple(
            ReplicaReport(
                replica_id=r.replica_id,
                final_state=r.state,
                final_version=r.version,
                batches_served=r.batches_served,
                requests_served=r.requests_served,
                fallback_batches=r.fallback_batches,
                crash_time=r.crash_time,
                stuck_declared=r.stuck_declared,
                swap_times=tuple(r.swap_times),
                breaker_transitions=tuple(r.breaker.transitions),
                final_breaker_state=r.breaker.state,
            )
            for r in self.replicas
        )
        return FleetOutcome(
            report=report,
            results=tuple(
                sorted(self.results, key=lambda r: r.request_id)
            ),
            served_batches=tuple(self.served_batches),
            rejected_ids=tuple(self.rejected_ids),
            shed_ids=tuple(sorted(self.shed_ids)),
            redirects=tuple(self.router.redirects),
            replicas=replica_reports,
            swaps=tuple(swaps),
            stale_swaps_rejected=self.stale_swaps,
            max_fallback_age=self.max_fallback_age,
            autoscale_events=tuple(self.autoscale_events),
            health_history=tuple(self.monitor.history),
            final_version=self.fleet_version,
            queue_max_depth=self.queue.max_depth,
            unaccounted=self.outstanding,
        )
