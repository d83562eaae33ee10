"""Deterministic fault injection for the trainer and the serving loop.

A :class:`FaultPlan` is a *finite, explicit* schedule of faults — stage
crashes, queue stalls, H2D copy failures, dropped gradient-queue
entries, torn/corrupted checkpoints, serving slowdown windows — keyed
by pipeline step (trainer faults) or simulated time (serving faults).
Because the pipeline executor and the serving event loop are both
deterministic, a plan makes the *whole failure scenario* a pure
function of (plan, seed): every chaos run reproduces the same crashes
at the same points, which is what lets the test suite assert bitwise
recovery instead of "usually recovers".

Injection rides the seams the codebase already has:

* the trainer's :class:`~repro.system.pipeline.TraceProbe` hooks —
  :class:`FaultProbe` crashes a stage from the dataflow hooks, and from
  the queue hooks fails or stalls a ``get`` (the item stays queued) or
  loses a gradient-queue ``put``;
* :class:`~repro.resilience.checkpoint.CheckpointStore`'s save hooks —
  torn and corrupted snapshot writes;
* the resilient serving loop's service-time model — slowdown windows.

Faults are **one-shot**: each spec fires at most once per injector
(standard chaos-engineering semantics), so recovery replay of the same
step does not re-crash and every plan terminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.system.pipeline import Rows, TraceProbe
from repro.utils.rng import ensure_rng

__all__ = [
    "FaultKind",
    "FaultSite",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultRecord",
    "FaultProbe",
    "FaultError",
    "InjectedCrash",
    "H2DCopyError",
    "QueueStallTimeout",
]


class FaultKind(str, enum.Enum):
    """What goes wrong."""

    CRASH = "crash"          #: a pipeline stage dies (raises mid-step)
    STALL = "stall"          #: a queue interaction exceeds its timeout
    H2D_FAIL = "h2d_fail"    #: the host->device copy of a prefetch entry fails
    DROP = "drop"            #: a gradient-queue entry is silently lost
    TORN = "torn"            #: a checkpoint write is torn (tmp only, truncated)
    CORRUPT = "corrupt"      #: committed checkpoint bytes are flipped
    SLOWDOWN = "slowdown"    #: serving service times inflate for a window
    STUCK = "stuck"          #: a replica accepts batches but never completes
    SWAP = "swap"            #: a rolling hot-swap is forced mid-traffic


class FaultSite(str, enum.Enum):
    """Where it goes wrong."""

    GATHER = "gather"            #: server-side prefetch gather stage
    TRAIN = "train"              #: worker forward/backward stage
    APPLY = "apply"              #: server-side gradient-apply stage
    PREFETCH_QUEUE = "prefetch"  #: the H2D prefetch queue
    GRAD_QUEUE = "gradient"      #: the D2H gradient queue
    CHECKPOINT = "checkpoint"    #: snapshot write path
    SERVE = "serve"              #: the online-inference primary path
    REPLICA = "replica"          #: one executor in the serving fleet
    FLEET = "fleet"              #: the serving fleet as a whole


#: Legal (kind, site) combinations; anything else is a plan bug.
_VALID_COMBOS: Dict[FaultKind, Tuple[FaultSite, ...]] = {
    FaultKind.CRASH: (
        FaultSite.GATHER, FaultSite.TRAIN, FaultSite.APPLY,
        FaultSite.REPLICA,
    ),
    FaultKind.STALL: (FaultSite.PREFETCH_QUEUE, FaultSite.GRAD_QUEUE),
    FaultKind.H2D_FAIL: (FaultSite.PREFETCH_QUEUE,),
    FaultKind.DROP: (FaultSite.GRAD_QUEUE,),
    FaultKind.TORN: (FaultSite.CHECKPOINT,),
    FaultKind.CORRUPT: (FaultSite.CHECKPOINT,),
    FaultKind.SLOWDOWN: (FaultSite.SERVE, FaultSite.REPLICA),
    FaultKind.STUCK: (FaultSite.REPLICA,),
    FaultKind.SWAP: (FaultSite.FLEET,),
}

#: Sites scheduled on the Simulator clock rather than the pipeline step.
_FLEET_SITES = (FaultSite.REPLICA, FaultSite.FLEET)


class FaultError(RuntimeError):
    """Base class for every injected failure.

    Carries the :class:`FaultSpec` that fired so supervisors and tests
    can attribute the crash.
    """

    def __init__(self, spec: "FaultSpec", detail: str = "") -> None:
        self.spec = spec
        message = f"injected {spec.kind.value} at {spec.site.value}"
        if spec.replica is not None:
            message += f"[{spec.replica}]"
        if spec.step is not None:
            message += f" (step {spec.step})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class InjectedCrash(FaultError):
    """A pipeline stage crashed."""


class H2DCopyError(FaultError):
    """The host->device copy of a prefetched batch failed."""


class QueueStallTimeout(FaultError):
    """A queue interaction stalled past the supervisor's patience."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Trainer faults are *step*-scheduled (the pipeline's logical clock:
    the batch id being gathered/trained/applied); serving and fleet
    faults are *time*-scheduled on the Simulator clock, with a
    ``duration`` window for slowdown/stuck kinds and a service-time
    ``factor`` for slowdowns.  Faults at :attr:`FaultSite.REPLICA`
    additionally name the ``replica`` they target.
    """

    kind: FaultKind
    site: FaultSite
    step: Optional[int] = None
    time: Optional[float] = None
    duration: float = 0.0
    factor: float = 1.0
    replica: Optional[int] = None

    @property
    def time_scheduled(self) -> bool:
        """Whether this fault fires on the Simulator clock (not a step)."""
        return self.kind is FaultKind.SLOWDOWN or self.site in _FLEET_SITES

    def __post_init__(self) -> None:
        if self.site not in _VALID_COMBOS[self.kind]:
            raise ValueError(
                f"fault kind {self.kind.value!r} cannot target site "
                f"{self.site.value!r}"
            )
        if self.site is FaultSite.REPLICA:
            if self.replica is None or self.replica < 0:
                raise ValueError(
                    "replica faults need an integer replica id >= 0"
                )
        elif self.replica is not None:
            raise ValueError(
                f"replica only applies to {FaultSite.REPLICA.value} faults"
            )
        if self.time_scheduled:
            if self.time is None or self.time < 0:
                raise ValueError(
                    f"{self.kind.value} faults need time >= 0"
                )
            if self.kind in (FaultKind.SLOWDOWN, FaultKind.STUCK):
                if self.duration <= 0:
                    raise ValueError(
                        f"{self.kind.value} faults need duration > 0"
                    )
            if self.kind is FaultKind.SLOWDOWN and self.factor < 1.0:
                raise ValueError(
                    f"slowdown factor must be >= 1, got {self.factor}"
                )
        else:
            if self.step is None or self.step < 0:
                raise ValueError(
                    f"{self.kind.value} faults need an integer step >= 0"
                )

    def describe(self) -> str:
        target = self.site.value
        if self.replica is not None:
            target = f"{self.site.value}[{self.replica}]"
        if self.kind in (FaultKind.SLOWDOWN, FaultKind.STUCK):
            assert self.time is not None
            window = (
                f"t=[{self.time:.3f}, {self.time + self.duration:.3f})"
            )
            suffix = (
                f" x{self.factor:g}"
                if self.kind is FaultKind.SLOWDOWN else ""
            )
            return f"{self.kind.value:9s} @ {target:10s} {window}{suffix}"
        if self.time_scheduled:
            assert self.time is not None
            return f"{self.kind.value:9s} @ {target:10s} t={self.time:.3f}"
        return f"{self.kind.value:9s} @ {target:10s} step={self.step}"


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired during a run."""

    spec: FaultSpec
    fired_step: int
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Named, seeded schedule of faults.

    ``specs`` is the explicit schedule; :meth:`random` derives one
    deterministically from a seed for fuzz-style chaos runs.
    """

    name: str
    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def injector(self) -> "FaultInjector":
        """Fresh injector (one-shot firing state) for one run."""
        return FaultInjector(self)

    @property
    def train_specs(self) -> Tuple[FaultSpec, ...]:
        """Step-scheduled trainer faults (crash/stall/drop/torn/...)."""
        return tuple(s for s in self.specs if not s.time_scheduled)

    @property
    def serve_specs(self) -> Tuple[FaultSpec, ...]:
        """Fleet-wide serving slowdown windows (the legacy SERVE site)."""
        return tuple(
            s for s in self.specs
            if s.kind is FaultKind.SLOWDOWN and s.site is FaultSite.SERVE
        )

    @property
    def fleet_specs(self) -> Tuple[FaultSpec, ...]:
        """Per-replica and fleet-level faults (time-scheduled)."""
        return tuple(s for s in self.specs if s.site in _FLEET_SITES)

    def describe(self) -> str:
        lines = [f"fault plan {self.name!r} (seed {self.seed}):"]
        lines += [f"  {spec.describe()}" for spec in self.specs]
        if not self.specs:
            lines.append("  (no faults)")
        return "\n".join(lines)

    @classmethod
    def random(
        cls,
        name: str,
        seed: int,
        num_faults: int,
        max_step: int,
    ) -> "FaultPlan":
        """Deterministically sample a trainer-fault plan from a seed.

        Draws ``num_faults`` distinct steps in ``[1, max_step)`` and a
        crash/stall/drop/h2d fault for each — reproducible fuzzing for
        the recovery path.
        """
        if num_faults < 0:
            raise ValueError(f"num_faults must be >= 0, got {num_faults}")
        if max_step <= 1:
            raise ValueError(f"max_step must be > 1, got {max_step}")
        rng = ensure_rng((seed, 0xFA))
        menu: Tuple[Tuple[FaultKind, FaultSite], ...] = (
            (FaultKind.CRASH, FaultSite.GATHER),
            (FaultKind.CRASH, FaultSite.TRAIN),
            (FaultKind.CRASH, FaultSite.APPLY),
            (FaultKind.H2D_FAIL, FaultSite.PREFETCH_QUEUE),
            (FaultKind.STALL, FaultSite.PREFETCH_QUEUE),
            (FaultKind.DROP, FaultSite.GRAD_QUEUE),
        )
        count = min(num_faults, max_step - 1)
        steps = rng.choice(
            range(1, max_step), size=count, replace=False
        )
        specs = []
        for step in sorted(int(s) for s in steps):
            kind, site = menu[int(rng.integers(len(menu)))]
            specs.append(FaultSpec(kind=kind, site=site, step=step))
        return cls(name=name, specs=tuple(specs), seed=seed)


class FaultInjector:
    """Run-scoped firing state for one :class:`FaultPlan`.

    The injector is consulted from the probe hooks, the checkpoint
    store, and the resilient serving loop.  Every fault
    that fires is appended to :attr:`records`, so a chaos harness can
    cross-check "what the plan promised" against "what actually
    happened".
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending: List[FaultSpec] = list(plan.train_specs)
        self._slowdowns: List[FaultSpec] = list(plan.serve_specs)
        self._slowdowns_seen: Set[int] = set()
        self._fleet: List[FaultSpec] = list(plan.fleet_specs)
        self._fleet_seen: Set[int] = set()
        self.records: List[FaultRecord] = []
        #: Logical step of the batch the worker is currently training;
        #: maintained by :class:`FaultProbe` via ``on_batch_start``.
        self.current_step = -1

    # -- trainer-side hooks --------------------------------------------
    def _take(
        self, kinds: Tuple[FaultKind, ...], site: FaultSite, step: int
    ) -> Optional[FaultSpec]:
        for spec in self._pending:
            if spec.kind in kinds and spec.site is site and spec.step == step:
                self._pending.remove(spec)
                self.records.append(FaultRecord(spec=spec, fired_step=step))
                return spec
        return None

    def stage_crash(self, site: FaultSite, step: int) -> None:
        """Raise if the plan crashes ``site`` while it handles ``step``."""
        spec = self._take((FaultKind.CRASH,), site, step)
        if spec is not None:
            raise InjectedCrash(spec)

    def queue_get_fault(self, site: FaultSite, step: int) -> None:
        """Raise if this queue ``get`` fails (H2D copy / stall timeout)."""
        spec = self._take((FaultKind.H2D_FAIL,), site, step)
        if spec is not None:
            raise H2DCopyError(spec, "prefetch entry lost in transfer")
        spec = self._take((FaultKind.STALL,), site, step)
        if spec is not None:
            raise QueueStallTimeout(
                spec, "consumer timed out waiting on the queue"
            )

    def queue_drop(self, site: FaultSite, step: int) -> bool:
        """True when this queue ``put`` should silently lose its item."""
        return self._take((FaultKind.DROP,), site, step) is not None

    def checkpoint_fault(self, step: int) -> Optional[FaultSpec]:
        """The torn/corrupt fault scheduled for the snapshot at ``step``."""
        return self._take(
            (FaultKind.TORN, FaultKind.CORRUPT), FaultSite.CHECKPOINT, step
        )

    # -- serving-side hooks --------------------------------------------
    def slowdown_factor(self, now: float) -> float:
        """Product of every slowdown window active at simulated ``now``."""
        factor = 1.0
        for i, spec in enumerate(self._slowdowns):
            assert spec.time is not None
            if spec.time <= now < spec.time + spec.duration:
                factor *= spec.factor
                if i not in self._slowdowns_seen:
                    self._slowdowns_seen.add(i)
                    self.records.append(
                        FaultRecord(
                            spec=spec,
                            fired_step=-1,
                            detail=f"window entered at t={now:.4f}",
                        )
                    )
        return factor

    # -- fleet-side hooks ----------------------------------------------
    def _mark_fleet(self, index: int, now: float, detail: str) -> None:
        if index in self._fleet_seen:
            return
        self._fleet_seen.add(index)
        self.records.append(
            FaultRecord(
                spec=self._fleet[index], fired_step=-1,
                detail=f"{detail} at t={now:.4f}",
            )
        )

    def replica_crashes(self) -> Tuple[Tuple[float, int, FaultSpec], ...]:
        """(time, replica, spec) for every scheduled replica crash.

        The fleet event loop schedules one crash event per entry and
        calls :meth:`fleet_fired` when it actually fires.
        """
        out: List[Tuple[float, int, FaultSpec]] = []
        for spec in self._fleet:
            if spec.kind is FaultKind.CRASH:
                assert spec.time is not None and spec.replica is not None
                out.append((spec.time, spec.replica, spec))
        return tuple(sorted(out, key=lambda entry: entry[0]))

    def fleet_fired(self, spec: FaultSpec, now: float, detail: str) -> None:
        """Record a scheduled fleet fault as fired (once per spec)."""
        for i, candidate in enumerate(self._fleet):
            if candidate is spec:
                self._mark_fleet(i, now, detail)
                return
        raise ValueError(f"spec {spec.describe()!r} is not a fleet fault")

    def replica_stuck(self, replica: int, now: float) -> bool:
        """Whether ``replica`` is inside a stuck window at ``now``.

        A stuck replica accepts the dispatch but never schedules its
        completion — the health monitor's watchdog must notice.
        """
        stuck = False
        for i, spec in enumerate(self._fleet):
            if spec.kind is not FaultKind.STUCK or spec.replica != replica:
                continue
            assert spec.time is not None
            if spec.time <= now < spec.time + spec.duration:
                stuck = True
                self._mark_fleet(i, now, "swallowed a dispatch")
        return stuck

    def replica_slowdown_factor(self, replica: int, now: float) -> float:
        """Product of per-replica slowdown windows active at ``now``."""
        factor = 1.0
        for i, spec in enumerate(self._fleet):
            if (
                spec.kind is not FaultKind.SLOWDOWN
                or spec.replica != replica
            ):
                continue
            assert spec.time is not None
            if spec.time <= now < spec.time + spec.duration:
                factor *= spec.factor
                self._mark_fleet(i, now, "window entered")
        return factor

    # -- reporting ------------------------------------------------------
    @property
    def pending(self) -> Tuple[FaultSpec, ...]:
        """Trainer faults that have not fired yet."""
        return tuple(self._pending)

    @property
    def fleet_pending(self) -> Tuple[FaultSpec, ...]:
        """Fleet faults that have not fired yet."""
        return tuple(
            spec for i, spec in enumerate(self._fleet)
            if i not in self._fleet_seen
        )

    @property
    def fired(self) -> Tuple[FaultSpec, ...]:
        return tuple(record.spec for record in self.records)


class FaultProbe(TraceProbe):
    """A :class:`~repro.system.pipeline.TraceProbe` that injects faults.

    Where the hazard detector's probe only observes, this probe *acts*
    at the exact (site, step) points the plan names: stage hooks raise
    :class:`InjectedCrash`, a queue ``get`` may raise
    :class:`H2DCopyError`/:class:`QueueStallTimeout` before the item
    leaves the queue, and a gradient-queue ``put`` may silently lose
    its item (the lost-update fault the supervisor must *detect*, not
    just survive).  It also keeps per-segment accounting — which batch
    ids started, trained, and were applied — which is how the
    supervisor detects those silent drops.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self.started: Set[int] = set()
        self.trained: Set[int] = set()
        self.applied: Set[int] = set()
        #: (batch_id, table) -> number of host applies observed.  An
        #: exactly-once segment has every count equal to 1.
        self.apply_counts: Dict[Tuple[int, int], int] = {}

    # -- segment accounting (used by the supervisor) --------------------
    def begin_segment(self) -> None:
        """Reset per-segment accounting before a training segment."""
        self.started.clear()
        self.trained.clear()
        self.applied.clear()
        self.apply_counts.clear()

    @property
    def steps_started(self) -> int:
        return len(self.started)

    def missing_applies(self) -> List[int]:
        """Batch ids that trained but whose update never reached host."""
        return sorted(self.trained - self.applied)

    def duplicate_applies(self) -> List[Tuple[int, int]]:
        """(batch_id, table) pairs whose update hit host more than once."""
        return sorted(k for k, n in self.apply_counts.items() if n > 1)

    # -- TraceProbe hooks ----------------------------------------------
    def on_batch_start(self, batch_id: int) -> None:
        self.injector.current_step = batch_id
        self.started.add(batch_id)

    # The trainer names its queues "prefetch" and "gradient": the values
    # of FaultSite.PREFETCH_QUEUE and FaultSite.GRAD_QUEUE.
    def on_queue_put(self, queue: str) -> bool:
        return not self.injector.queue_drop(
            FaultSite(queue), self.injector.current_step
        )

    def on_queue_get(self, queue: str) -> None:
        self.injector.queue_get_fault(
            FaultSite(queue), self.injector.current_step
        )

    def on_gather(self, batch_id: int, table: int, rows: Rows) -> None:
        self.injector.stage_crash(FaultSite.GATHER, batch_id)

    def on_consume(self, batch_id: int, table: int, rows: Rows) -> None:
        self.injector.stage_crash(FaultSite.TRAIN, batch_id)

    def on_update(self, batch_id: int, table: int, rows: Rows) -> None:
        self.trained.add(batch_id)

    def on_apply(self, batch_id: int, table: int, rows: Rows) -> None:
        self.injector.stage_crash(FaultSite.APPLY, batch_id)
        self.applied.add(batch_id)
        key = (batch_id, table)
        self.apply_counts[key] = self.apply_counts.get(key, 0) + 1
