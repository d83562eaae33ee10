"""Dynamic micro-batching with admission control (serving front door.)

GPU inference amortizes fixed per-launch cost over batch size, but a
request that waits too long for peers blows its latency budget — the
classic micro-batching trade-off.  :class:`MicroBatcher` implements
the standard policy pair:

* **size trigger** — dispatch as soon as ``max_batch_size`` requests
  are pending;
* **time trigger** — dispatch a partial batch once the *oldest*
  pending request has waited ``max_wait`` seconds.

Pending requests live in a :class:`~repro.system.queues.BoundedQueue`;
a full queue means the workers are saturated past the batcher's buffer
and new arrivals are **rejected** (admission control — shedding load
early is how serving systems keep p99 bounded instead of letting the
queue grow without limit).  Like the training pipeline, the batcher is
a passive deterministic data structure: the serving event loop drives
it with explicit timestamps, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.serving.requests import InferenceRequest
from repro.system.queues import BoundedQueue
from repro.utils.validation import check_positive

__all__ = ["BatchingPolicy", "MicroBatch", "MicroBatcher"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Coalescing policy knobs.

    Attributes
    ----------
    max_batch_size:
        Dispatch when this many requests are pending (1 disables
        coalescing — every request is its own batch).
    max_wait:
        Dispatch a partial batch once the oldest pending request has
        waited this long, in seconds (0 = never hold a request back).
    queue_capacity:
        Pending-queue bound; arrivals beyond it are rejected.
    """

    max_batch_size: int = 32
    max_wait: float = 2e-3
    queue_capacity: int = 512

    def __post_init__(self) -> None:
        check_positive(self.max_batch_size, "max_batch_size")
        check_positive(self.queue_capacity, "queue_capacity")
        if self.max_wait < 0:
            raise ValueError(
                f"max_wait must be >= 0, got {self.max_wait}"
            )
        if self.queue_capacity < self.max_batch_size:
            raise ValueError(
                "queue_capacity must be >= max_batch_size "
                f"({self.queue_capacity} < {self.max_batch_size})"
            )


@dataclass(frozen=True)
class MicroBatch:
    """One coalesced dispatch unit."""

    requests: Tuple[InferenceRequest, ...]
    formed_time: float

    @property
    def size(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Deterministic request coalescer over a bounded pending queue."""

    def __init__(self, policy: BatchingPolicy) -> None:
        self.policy = policy
        self._pending: BoundedQueue[InferenceRequest] = BoundedQueue(
            policy.queue_capacity
        )
        self.admitted = 0
        self.rejected = 0
        self.batches_formed = 0
        self.max_depth = 0

    # -- intake --------------------------------------------------------
    def offer(self, request: InferenceRequest, now: float) -> bool:
        """Admit a request, or reject it when the queue is full."""
        if request.arrival_time > now + 1e-12:
            raise ValueError(
                f"request {request.request_id} offered before its arrival "
                f"({request.arrival_time} > {now})"
            )
        if self._pending.full():
            self.rejected += 1
            return False
        self._pending.put(request)
        self.admitted += 1
        self.max_depth = max(self.max_depth, len(self._pending))
        return True

    # -- inspection ----------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._pending)

    def empty(self) -> bool:
        return self._pending.empty()

    def oldest_deadline(self) -> Optional[float]:
        """Absolute time at which the oldest pending request expires."""
        if self._pending.empty():
            return None
        return self._pending.peek().arrival_time + self.policy.max_wait

    def ready(self, now: float) -> bool:
        """Whether a batch should dispatch at time ``now``."""
        if self._pending.empty():
            return False
        if len(self._pending) >= self.policy.max_batch_size:
            return True
        deadline = self.oldest_deadline()
        assert deadline is not None  # queue is non-empty here
        return now + 1e-12 >= deadline

    # -- dispatch ------------------------------------------------------
    def pop_batch(self, now: float) -> Optional[MicroBatch]:
        """Pop up to ``max_batch_size`` requests if the policy fires."""
        if not self.ready(now):
            return None
        return self._pop(now)

    def force_pop(self, now: float) -> Optional[MicroBatch]:
        """Pop pending requests regardless of policy (stream drain)."""
        if self._pending.empty():
            return None
        return self._pop(now)

    def _pop(self, now: float) -> MicroBatch:
        take = min(len(self._pending), self.policy.max_batch_size)
        requests = tuple(self._pending.get() for _ in range(take))
        self.batches_formed += 1
        return MicroBatch(requests=requests, formed_time=now)
