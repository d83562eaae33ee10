"""Event-recording shims over the pipeline's moving parts.

Subclasses of :class:`~repro.system.queues.BoundedQueue` and
:class:`~repro.embeddings.cache.EmbeddingCache` that log every
interaction to a :class:`~repro.analysis.hazards.TraceRecorder`, plus
:class:`PipelineProbe` — the object a
:class:`~repro.system.pipeline.PipelinedPSTrainer` accepts to have its
gather/consume/update/apply path traced.  The shims change *no*
behaviour: an instrumented run is bit-identical to a bare run (asserted
in the test suite), they only observe.
"""

from __future__ import annotations

from typing import Iterable, Tuple, TypeVar

import numpy as np

from repro.analysis.hazards import (
    EventKind,
    HazardReport,
    TraceRecorder,
    analyze_trace,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.cache import BoolArray, EmbeddingCache, FloatArray, IntArray
from repro.system.queues import BoundedQueue

__all__ = ["RecordingQueue", "RecordingCache", "PipelineProbe"]

T = TypeVar("T")

# Stage tags used in recorded events.  DESIGN.md §7 maps these onto the
# paper's §V-B life-cycle narrative.
STAGE_SERVER_GATHER = "server_gather"
STAGE_WORKER_TRAIN = "worker_train"
STAGE_SERVER_APPLY = "server_apply"
STAGE_CACHE = "lc_cache"


class RecordingQueue(BoundedQueue[T]):
    """A :class:`BoundedQueue` that logs put/get traffic.

    Queue events carry the queue's name as their stage tag; they feed
    occupancy diagnostics, not the hazard analysis itself (hazards are
    defined on row events).
    """

    def __init__(
        self, capacity: int, recorder: TraceRecorder, name: str
    ) -> None:
        super().__init__(capacity)
        self._recorder = recorder
        self._name = name

    def put(self, item: T) -> None:
        super().put(item)
        self._recorder.tick()
        self._recorder.record(EventKind.QUEUE_PUT, stage=self._name)

    def get(self) -> T:
        item = super().get()
        self._recorder.tick()
        self._recorder.record(EventKind.QUEUE_GET, stage=self._name)
        return item


class RecordingCache(EmbeddingCache):
    """An :class:`EmbeddingCache` that logs its life-cycle events.

    ``SYNC_HIT`` events are what mark a stale gather as *repaired* in
    the hazard analysis; ``CACHE_PUT``/``CACHE_DEC``/``CACHE_EVICT``
    narrate the §V-B life-cycle for the report.
    """

    def __init__(
        self,
        embedding_dim: int,
        default_lifecycle: int,
        recorder: TraceRecorder,
        table: int,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(embedding_dim, default_lifecycle, dtype)
        self._recorder = recorder
        self._table = table
        self._current_batch = -1

    def set_batch(self, batch_id: int) -> None:
        """Tag subsequent cache events with the active batch id."""
        self._current_batch = int(batch_id)

    def _log(self, kind: EventKind, rows: Iterable[int]) -> None:
        self._recorder.record_rows(
            kind, stage=STAGE_CACHE, table=self._table, rows=rows, batch=self._current_batch
        )

    def put(self, indices: IntArray, values: FloatArray) -> None:
        super().put(indices, values)
        self._recorder.tick()
        self._log(EventKind.CACHE_PUT, np.asarray(indices).tolist())

    def synchronize(
        self, indices: IntArray, values: FloatArray
    ) -> Tuple[FloatArray, BoolArray]:
        fresh, hit_mask = super().synchronize(indices, values)
        self._recorder.tick()
        idx = np.asarray(indices)
        self._log(EventKind.SYNC_HIT, idx[hit_mask].tolist())
        self._log(EventKind.SYNC_MISS, idx[~hit_mask].tolist())
        return fresh, hit_mask

    def decrement(self, indices: IntArray) -> int:
        idx = np.unique(np.asarray(indices))
        before = idx[self._find(idx)[1]]  # the cached ones, ascending
        evicted = super().decrement(indices)
        self._recorder.tick()
        live = self._find(before)[1]
        self._log(EventKind.CACHE_DEC, before[live].tolist())
        self._log(EventKind.CACHE_EVICT, before[~live].tolist())
        return evicted


class PipelineProbe:
    """Trace recorder attachable to a :class:`PipelinedPSTrainer`.

    The trainer calls the factory methods at construction time (so its
    queues and caches are recording variants) and the ``on_*`` hooks
    from its gather/consume/update/apply path.  After a run,
    :meth:`report` analyzes the accumulated trace.
    """

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        self._caches: "list[RecordingCache]" = []

    # -- component factories (called by the trainer) -------------------
    def make_queue(self, capacity: int, name: str) -> RecordingQueue[T]:
        return RecordingQueue(capacity, self.recorder, name)

    def make_cache(
        self, embedding_dim: int, default_lifecycle: int, table: int, dtype: DTypeLike
    ) -> RecordingCache:
        cache = RecordingCache(
            embedding_dim, default_lifecycle, self.recorder, table, dtype
        )
        self._caches.append(cache)
        return cache

    # -- dataflow hooks (called by the trainer) ------------------------
    def _step(
        self, kind: EventKind, stage: str, batch_id: int, table: int, rows: Iterable[int]
    ) -> None:
        """One pipeline operation: advance the clock, stamp every row."""
        self.recorder.tick()
        self.recorder.record_rows(kind, stage=stage, table=table, rows=rows, batch=batch_id)

    def on_gather(self, batch_id: int, table: int, unique_indices: Iterable[int]) -> None:
        """Server read host rows for a prefetch entry."""
        self._step(EventKind.GATHER, STAGE_SERVER_GATHER, batch_id, table, unique_indices)

    def on_consume(self, batch_id: int, table: int, unique_indices: Iterable[int]) -> None:
        """Worker loaded the (possibly cache-synced) prefetched rows."""
        self._step(EventKind.CONSUME, STAGE_WORKER_TRAIN, batch_id, table, unique_indices)

    def on_update(self, batch_id: int, table: int, unique_indices: Iterable[int]) -> None:
        """Worker produced fresh row values (write intent)."""
        self._step(EventKind.UPDATE, STAGE_WORKER_TRAIN, batch_id, table, unique_indices)

    def on_apply(self, batch_id: int, table: int, unique_indices: Iterable[int]) -> None:
        """Server applied a batch's gradients to host memory."""
        self._step(EventKind.APPLY, STAGE_SERVER_APPLY, batch_id, table, unique_indices)

    def on_batch_start(self, batch_id: int) -> None:
        """Tag this probe's recording caches with the active batch."""
        for cache in self._caches:
            cache.set_batch(batch_id)

    # -- analysis ------------------------------------------------------
    def report(self) -> HazardReport:
        """Analyze the trace recorded so far."""
        return analyze_trace(self.recorder.events)
