"""Sequential and pipelined PS training executors (paper §V, Figures 9/10).

Two personalities:

* **Functional executors** — :class:`SequentialPSTrainer` and
  :class:`PipelinedPSTrainer` run real training steps through the
  parameter-server architecture on one host.  The pipelined executor
  reproduces the read-after-write hazard exactly: host rows for batch
  ``i+Q`` are gathered *before* the updates of batches ``i..i+Q-1``
  reach host memory.  With the embedding cache enabled the hazard is
  repaired and pipelined training is **bit-identical** to sequential
  training (proved in the test suite); with the cache disabled the
  worker trains on stale rows, the consistency issue the paper warns
  about (§II-A).
* **Timing model** — :func:`pipeline_schedule` computes the makespan of
  the same pipeline from per-item stage durations, with the trainer's
  meaning of the prefetch depth ``Q``: the arithmetic behind the
  Figure 16 throughput comparison and the prefetch-depth ablation.

The pipelined executor builds its own plain queues and caches and
reports every operation on them — queue puts and gets, cache syncs,
puts and decrements, and the gather/consume/update/apply dataflow — to
one :class:`TraceProbe`, named by an :class:`EventKind`.  The hazard
detector (``repro.analysis``) records those events; the chaos harness
(``repro.resilience``) raises its faults from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, TypeVar

import numpy as np
import numpy.typing as npt

from repro.data.dataloader import Batch, SyntheticClickLog
from repro.embeddings.cache import EmbeddingCache
from repro.models.dlrm import DLRM
from repro.nn.optim import SGD
from repro.system.parameter_server import HostBackedEmbeddingBag, PrefetchedRows
from repro.system.queues import BoundedQueue
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.sharding imports this module; a runtime import would cycle.
    from repro.sharding.server import ShardedParameterServer

__all__ = [
    "SequentialPSTrainer",
    "PipelinedPSTrainer",
    "TrainLog",
    "TraceProbe",
    "EventKind",
    "pipeline_schedule",
    "PipelineScheduleResult",
]


class EventKind(enum.Enum):
    """What happened to an embedding row (or queue slot)."""

    GATHER = "gather"  # server read host memory for a prefetch
    CONSUME = "consume"  # worker consumed the (possibly synced) rows
    UPDATE = "update"  # worker produced fresh row values (write intent)
    APPLY = "apply"  # server applied gradients to host memory (write)
    SYNC_HIT = "sync_hit"  # cache replaced a stale prefetched row
    SYNC_MISS = "sync_miss"  # cache had no entry for a prefetched row
    CACHE_PUT = "cache_put"  # LC cache stored/refreshed a row
    CACHE_DEC = "cache_dec"  # LC decremented (grad batch drained)
    CACHE_EVICT = "cache_evict"  # LC reached zero, row evicted
    QUEUE_PUT = "queue_put"  # bounded-queue enqueue (stage-tagged)
    QUEUE_GET = "queue_get"  # bounded-queue dequeue (stage-tagged)


Rows = npt.NDArray[np.int64]
T = TypeVar("T")


class TraceProbe:
    """Observer of a :class:`PipelinedPSTrainer`'s operations.

    Every hook here does nothing, and a trainer built without a probe
    reports to one of these.  Subclasses override what they watch: the
    hazard detector records events, the fault injector raises on cue.
    A hook may raise (an injected fault) or, in
    :meth:`on_queue_put`, withhold an item, but must not change the
    arrays it is handed.
    """

    def on_batch_start(self, batch_id: int) -> None:
        """The worker starts training batch ``batch_id``."""

    def on_queue_put(self, queue: str) -> bool:
        """An item is about to enter ``queue``; False loses it."""
        return True

    def on_queue_get(self, queue: str) -> None:
        """An item is about to leave ``queue`` (a raise leaves it queued)."""

    def on_gather(self, batch_id: int, table: int, rows: Rows) -> None:
        """Server read host rows for a prefetch entry."""

    def on_consume(self, batch_id: int, table: int, rows: Rows) -> None:
        """Worker loaded the (possibly cache-synced) prefetched rows."""

    def on_update(self, batch_id: int, table: int, rows: Rows) -> None:
        """Worker produced fresh row values (write intent)."""

    def on_apply(self, batch_id: int, table: int, rows: Rows) -> None:
        """Server applied a batch's gradients to host memory."""

    def on_cache(self, table: int, *events: Tuple[EventKind, Rows]) -> None:
        """One operation on ``table``'s LC cache, as ``(kind, rows)`` pairs."""


@dataclass
class TrainLog:
    """Record of one training run."""

    losses: List[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    stale_rows_consumed: int = 0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no steps recorded")
        return self.losses[-1]


class _PSTrainerBase:
    """Shared wiring between the sequential and pipelined executors.

    Parameters
    ----------
    model:
        DLRM whose host-resident tables are
        :class:`HostBackedEmbeddingBag` instances.
    server:
        Parameter server owning the host tables' weights.
    host_table_map:
        ``{model_table_idx: server_table_idx}`` for every host table.
    lr:
        Learning rate (shared by worker and server).
    """

    def __init__(
        self,
        model: DLRM,
        server: ShardedParameterServer,
        host_table_map: Dict[int, int],
        lr: float,
    ) -> None:
        check_positive(lr, "lr")
        self.model = model
        self.server = server
        self.host_table_map = dict(host_table_map)
        self.lr = float(lr)
        for pos in self.host_table_map:
            bag = model.embedding_bags[pos]
            if not isinstance(bag, HostBackedEmbeddingBag):
                raise TypeError(
                    f"model table {pos} is {type(bag).__name__}, expected "
                    "HostBackedEmbeddingBag"
                )
        self._mlp_sgd = SGD(model.parameters(), lr=lr)

    # -- worker-side compute -------------------------------------------
    def _compute_step(self, batch: Batch) -> float:
        """Forward + backward + local updates; host grads stay captured."""
        logits = self.model.forward(batch)
        loss = self.model.loss_fn.forward(logits, batch.labels)
        self.model.backward(self.model.loss_fn.backward())
        self._mlp_sgd.step()
        self.model.zero_grad()
        for pos, bag in enumerate(self.model.embedding_bags):
            if pos not in self.host_table_map:
                bag.step(self.lr)
        return loss

    def _host_bags(self) -> List[Tuple[int, int, HostBackedEmbeddingBag]]:
        return [
            (pos, server_idx, self.model.embedding_bags[pos])  # type: ignore[misc]
            for pos, server_idx in self.host_table_map.items()
        ]


class SequentialPSTrainer(_PSTrainerBase):
    """Non-pipelined reference: gather -> train -> update, strictly in order.

    Equivalent to setting the prefetch-queue length to 1 (the paper's
    "EL-Rec (Sequential)" configuration in Figure 16) — the worker
    waits for the server on every batch.
    """

    def train(
        self, log: SyntheticClickLog, num_batches: int, start: int = 0
    ) -> TrainLog:
        check_positive(num_batches, "num_batches", strict=False)
        check_positive(start, "start", strict=False)
        result = TrainLog()
        for i in range(start, start + num_batches):
            batch = log.batch(i)
            result.losses.append(self.train_step(batch))
        return result

    def train_step(self, batch: Batch) -> float:
        # Gather fresh rows synchronously.
        for pos, server_idx, bag in self._host_bags():
            prefetched = self.server.gather(
                server_idx, batch.sparse_indices[pos]
            )
            bag.load_rows(
                prefetched.unique_indices, prefetched.rows, prefetched.groups
            )
        loss = self._compute_step(batch)
        # Apply host gradients immediately.
        for pos, server_idx, bag in self._host_bags():
            unique_idx, grads = bag.pop_row_gradients()
            self.server.apply_gradients(server_idx, unique_idx, grads)
        return loss


@dataclass
class _GradEntry:
    batch_id: int
    per_table: List[Tuple[int, np.ndarray, np.ndarray]]  # (server_idx, uidx, grads)


class PipelinedPSTrainer(_PSTrainerBase):
    """Three-stage pipelined executor with LC-managed embedding caches.

    Parameters
    ----------
    model, server, host_table_map, lr:
        As for :class:`_PSTrainerBase`.
    prefetch_depth:
        Length ``Q`` of the prefetch queue: host rows for batch ``i``
        are gathered ``Q`` batches early.
    grad_queue_depth:
        Length ``D`` of the gradient queue: a batch's host update is
        applied only when the queue overflows, i.e. ``D`` batches
        late.
    use_cache:
        Enable the §V-B embedding cache.  Disabling it reproduces the
        naive prefetching of Figure 10(a): the worker silently trains
        on stale rows.
    probe:
        Optional :class:`TraceProbe` every queue, cache and dataflow
        operation is reported to.  Used by the ``repro.analysis``
        hazard detector and the ``repro.resilience`` fault injector;
        an observing probe has no effect on numerics.

    Notes
    -----
    The executor is single-threaded and deterministic; server and
    worker "turns" interleave in a fixed order per iteration:

    1. worker pops the prefetch entry for batch ``i`` and (optionally)
       synchronizes it against the cache;
    2. worker trains, pushes gradients, and caches its updated rows
       with ``LC = Q + D`` (the paper's "maximum length of the
       requests queue");
    3. server drains the gradient queue under backpressure and
       decrements LCs;
    4. server gathers the prefetch entry for batch ``i + Q`` from the
       *current* host state.
    """

    def __init__(
        self,
        model: DLRM,
        server: ShardedParameterServer,
        host_table_map: Dict[int, int],
        lr: float,
        prefetch_depth: int = 2,
        grad_queue_depth: int = 1,
        use_cache: bool = True,
        probe: Optional[TraceProbe] = None,
    ) -> None:
        super().__init__(model, server, host_table_map, lr)
        check_positive(prefetch_depth, "prefetch_depth")
        check_positive(grad_queue_depth, "grad_queue_depth")
        self.prefetch_depth = int(prefetch_depth)
        self.grad_queue_depth = int(grad_queue_depth)
        self.use_cache = use_cache
        self.probe = probe if probe is not None else TraceProbe()
        lifecycle = self.prefetch_depth + self.grad_queue_depth
        dim, dtype = model.config.embedding_dim, model.config.dtype
        self.caches: Dict[int, EmbeddingCache] = {
            pos: EmbeddingCache(dim, lifecycle, dtype)
            for pos in self.host_table_map
        }

    def train(
        self, log: SyntheticClickLog, num_batches: int, start: int = 0
    ) -> TrainLog:
        check_positive(num_batches, "num_batches", strict=False)
        check_positive(start, "start", strict=False)
        result = TrainLog()
        probe = self.probe
        prefetch_q: BoundedQueue[
            Tuple[Batch, Dict[int, PrefetchedRows]]
        ] = BoundedQueue(self.prefetch_depth)
        grad_q: BoundedQueue[_GradEntry] = BoundedQueue(self.grad_queue_depth)

        def put(queue: BoundedQueue[T], name: str, item: T) -> None:
            if probe.on_queue_put(name):
                queue.put(item)

        def get(queue: BoundedQueue[T], name: str) -> T:
            probe.on_queue_get(name)
            return queue.get()

        def gather_for(batch_id: int) -> Tuple[Batch, Dict[int, PrefetchedRows]]:
            # The batch travels with the rows gathered for it, and each
            # entry with the gather's grouping of the batch's ids: the
            # step loop trains on these objects, it neither builds the
            # batch again nor sorts its ids again.
            batch = log.batch(batch_id)
            gathered = {
                pos: self.server.gather(server_idx, batch.sparse_indices[pos])
                for pos, server_idx, _ in self._host_bags()
            }
            for pos, entry in gathered.items():
                probe.on_gather(batch_id, pos, entry.unique_indices)
            return batch, gathered

        def drain_one() -> None:
            entry = get(grad_q, "gradient")
            for (pos, server_idx, _), (entry_sidx, uidx, grads) in zip(
                self._host_bags(), entry.per_table
            ):
                assert server_idx == entry_sidx
                self.server.apply_gradients(server_idx, uidx, grads)
                probe.on_apply(entry.batch_id, pos, uidx)
                if self.use_cache:
                    kept, evicted = self.caches[pos].decrement(uidx)
                    probe.on_cache(
                        pos,
                        (EventKind.CACHE_DEC, kept),
                        (EventKind.CACHE_EVICT, evicted),
                    )

        # Fill the prefetch queue (pipeline warm-up).
        for j in range(start, start + min(self.prefetch_depth, num_batches)):
            put(prefetch_q, "prefetch", gather_for(j))

        for i in range(start, start + num_batches):
            probe.on_batch_start(i)
            # (1) consume the prefetch entry for batch i.
            batch, prefetched = get(prefetch_q, "prefetch")
            for pos, server_idx, bag in self._host_bags():
                entry = prefetched[pos]
                rows = entry.rows
                if self.use_cache:
                    rows, hit_mask = self.caches[pos].synchronize(
                        entry.unique_indices, rows
                    )
                    result.cache_hits += int(hit_mask.sum())
                    result.cache_misses += int((~hit_mask).sum())
                    probe.on_cache(
                        pos,
                        (EventKind.SYNC_HIT, entry.unique_indices[hit_mask]),
                        (EventKind.SYNC_MISS, entry.unique_indices[~hit_mask]),
                    )
                else:
                    # Diagnostic only: count rows that differ from the
                    # value a synchronous gather would have produced.
                    fresh = self.server.tables[server_idx][entry.unique_indices]
                    result.stale_rows_consumed += int(
                        (~np.isclose(rows, fresh).all(axis=1)).sum()
                    )
                bag.load_rows(entry.unique_indices, rows, entry.groups)
                probe.on_consume(i, pos, entry.unique_indices)

            # (2) train; cache updated rows; enqueue gradients.
            result.losses.append(self._compute_step(batch))
            per_table: List[Tuple[int, np.ndarray, np.ndarray]] = []
            for pos, server_idx, bag in self._host_bags():
                if self.use_cache:
                    uidx, updated = bag.compute_updated_rows(self.lr)
                    self.caches[pos].put(uidx, updated)
                    probe.on_cache(pos, (EventKind.CACHE_PUT, uidx))
                unique_idx, grads = bag.pop_row_gradients()
                probe.on_update(i, pos, unique_idx)
                per_table.append((server_idx, unique_idx, grads))
            if grad_q.full():
                drain_one()  # backpressure: apply the oldest batch first
            put(grad_q, "gradient", _GradEntry(batch_id=i, per_table=per_table))

            # (3) prefetch batch i + Q from the *current* host state.
            next_id = i + self.prefetch_depth
            if next_id < start + num_batches and not prefetch_q.full():
                put(prefetch_q, "prefetch", gather_for(next_id))

        # (4) drain remaining gradients so the host state is final.
        while not grad_q.empty():
            drain_one()
        return result


@dataclass(frozen=True)
class PipelineScheduleResult:
    """Outcome of the prefetch-window pipeline timing recurrence."""

    finish_times: np.ndarray  # (num_items, num_stages)
    makespan: float
    stage_busy: np.ndarray  # (num_stages,) total busy seconds

    @property
    def steady_state_interval(self) -> float:
        """Average inter-departure time once the pipeline is full."""
        last = self.finish_times[:, -1]
        if last.size < 2:
            return float(self.makespan)
        return float((last[-1] - last[0]) / (last.size - 1))


def pipeline_schedule(
    stage_times: np.ndarray, prefetch_depth: int
) -> PipelineScheduleResult:
    """Makespan of an in-order pipeline behind a prefetch queue of depth Q.

    Parameters
    ----------
    stage_times:
        ``(num_items, num_stages)`` per-item stage durations in
        seconds.  For EL-Rec's trainer the stages are (CPU embedding
        gather + update, H2D/D2H transfer, GPU forward+backward).
    prefetch_depth:
        Length ``Q`` of the prefetch queue, as in
        :class:`PipelinedPSTrainer`: the server gathers item ``i`` only
        once item ``i - Q`` has left the last stage.  ``Q = 1`` runs
        the stages back to back, the paper's "EL-Rec (Sequential)".

    Notes
    -----
    Every stage serves items in order, so item ``i`` finishes stage
    ``s`` at

    ``end[i,s] = max(end[i,s-1], end[i-1,s]) + t[i,s]``

    with ``end[i,-1]`` (the start of stage 0) read as ``end[i-Q, S-1]``,
    the moment item ``i - Q`` frees its prefetch slot.
    """
    check_positive(prefetch_depth, "prefetch_depth")
    depth = int(prefetch_depth)
    # Simulated seconds, not model state: float64 whatever the model's dtype.
    times = np.asarray(stage_times, dtype=np.float64)
    if times.ndim != 2 or times.size == 0:
        raise ValueError(
            f"stage_times must be a non-empty 2-D array, got shape {times.shape}"
        )
    if np.any(times < 0):
        raise ValueError("stage durations must be non-negative")
    num_items, num_stages = times.shape

    end = np.zeros((num_items, num_stages))
    for i in range(num_items):
        ready = end[i - depth, -1] if i >= depth else 0.0
        for s in range(num_stages):
            busy = end[i - 1, s] if i > 0 else 0.0
            ready = max(ready, busy) + times[i, s]
            end[i, s] = ready
    return PipelineScheduleResult(
        finish_times=end,
        makespan=float(end[-1, -1]),
        stage_busy=times.sum(axis=0),
    )
