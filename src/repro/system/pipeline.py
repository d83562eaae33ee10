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
  a bounded-buffer in-order pipeline from per-item stage durations, the
  arithmetic behind the Figure 16 throughput comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.backend.protocol import DTypeLike
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
    "pipeline_schedule",
    "PipelineScheduleResult",
]


class TraceProbe(Protocol):
    """Observer interface for instrumented pipelined training.

    Implemented by :class:`repro.analysis.shims.PipelineProbe` (kept as
    a Protocol here so ``system`` does not import ``analysis``).  A
    probe must be *passive*: instrumented runs are bit-identical to
    bare runs.  Factories let the probe substitute recording variants
    of the queues and caches; hooks observe the dataflow.
    """

    def make_queue(self, capacity: int, name: str) -> "BoundedQueue":  # type: ignore[type-arg]
        ...

    def make_cache(
        self, embedding_dim: int, default_lifecycle: int, table: int, dtype: DTypeLike
    ) -> EmbeddingCache:
        ...

    def on_batch_start(self, batch_id: int) -> None:
        ...

    def on_gather(
        self, batch_id: int, table: int, unique_indices: Iterable[int]
    ) -> None:
        ...

    def on_consume(
        self, batch_id: int, table: int, unique_indices: Iterable[int]
    ) -> None:
        ...

    def on_update(
        self, batch_id: int, table: int, unique_indices: Iterable[int]
    ) -> None:
        ...

    def on_apply(
        self, batch_id: int, table: int, unique_indices: Iterable[int]
    ) -> None:
        ...


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
            bag.load_rows(prefetched.unique_indices, prefetched.rows)
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
        Optional :class:`TraceProbe` — when given, queues and caches
        are built through its factories and the gather/consume/
        update/apply dataflow is reported to it.  Used by the
        ``repro.analysis`` hazard detector; has no effect on numerics.

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
        self.probe = probe
        lifecycle = self.prefetch_depth + self.grad_queue_depth
        dim, dtype = model.config.embedding_dim, model.config.dtype
        if probe is None:
            self.caches: Dict[int, EmbeddingCache] = {
                pos: EmbeddingCache(dim, lifecycle, dtype)
                for pos in self.host_table_map
            }
        else:
            self.caches = {
                pos: probe.make_cache(dim, lifecycle, pos, dtype)
                for pos in self.host_table_map
            }

    def train(
        self, log: SyntheticClickLog, num_batches: int, start: int = 0
    ) -> TrainLog:
        result = TrainLog()
        if self.probe is None:
            prefetch_q: BoundedQueue[
                Tuple[Batch, Dict[int, PrefetchedRows]]
            ] = BoundedQueue(self.prefetch_depth)
            grad_q: BoundedQueue[_GradEntry] = BoundedQueue(
                self.grad_queue_depth
            )
        else:
            prefetch_q = self.probe.make_queue(self.prefetch_depth, "prefetch")
            grad_q = self.probe.make_queue(self.grad_queue_depth, "gradient")

        def gather_for(batch_id: int) -> Tuple[Batch, Dict[int, PrefetchedRows]]:
            # The batch travels with the rows gathered for it: the step
            # loop trains on this object, it does not build it again.
            batch = log.batch(batch_id)
            gathered = {
                pos: self.server.gather(server_idx, batch.sparse_indices[pos])
                for pos, server_idx, _ in self._host_bags()
            }
            if self.probe is not None:
                for pos, entry in gathered.items():
                    self.probe.on_gather(
                        batch_id, pos, entry.unique_indices.tolist()
                    )
            return batch, gathered

        def drain_one() -> None:
            entry = grad_q.get()
            for (pos, server_idx, _), (entry_sidx, uidx, grads) in zip(
                self._host_bags(), entry.per_table
            ):
                assert server_idx == entry_sidx
                self.server.apply_gradients(server_idx, uidx, grads)
                if self.probe is not None:
                    self.probe.on_apply(entry.batch_id, pos, uidx.tolist())
                if self.use_cache:
                    self.caches[pos].decrement(uidx)

        # Fill the prefetch queue (pipeline warm-up).
        for j in range(start, start + min(self.prefetch_depth, num_batches)):
            prefetch_q.put(gather_for(j))

        for i in range(start, start + num_batches):
            if self.probe is not None:
                self.probe.on_batch_start(i)
            # (1) consume the prefetch entry for batch i.
            batch, prefetched = prefetch_q.get()
            for pos, server_idx, bag in self._host_bags():
                entry = prefetched[pos]
                rows = entry.rows
                if self.use_cache:
                    rows, hit_mask = self.caches[pos].synchronize(
                        entry.unique_indices, rows
                    )
                    result.cache_hits += int(hit_mask.sum())
                    result.cache_misses += int((~hit_mask).sum())
                else:
                    # Diagnostic only: count rows that differ from the
                    # value a synchronous gather would have produced.
                    fresh = self.server.tables[server_idx][entry.unique_indices]
                    result.stale_rows_consumed += int(
                        (~np.isclose(rows, fresh).all(axis=1)).sum()
                    )
                bag.load_rows(entry.unique_indices, rows)
                if self.probe is not None:
                    self.probe.on_consume(
                        i, pos, entry.unique_indices.tolist()
                    )

            # (2) train; cache updated rows; enqueue gradients.
            result.losses.append(self._compute_step(batch))
            per_table: List[Tuple[int, np.ndarray, np.ndarray]] = []
            for pos, server_idx, bag in self._host_bags():
                if self.use_cache:
                    uidx, updated = bag.compute_updated_rows(self.lr)
                    self.caches[pos].put(uidx, updated)
                unique_idx, grads = bag.pop_row_gradients()
                if self.probe is not None:
                    self.probe.on_update(i, pos, unique_idx.tolist())
                per_table.append((server_idx, unique_idx, grads))
            if grad_q.full():
                drain_one()  # backpressure: apply the oldest batch first
            grad_q.put(_GradEntry(batch_id=i, per_table=per_table))

            # (3) prefetch batch i + Q from the *current* host state.
            next_id = i + self.prefetch_depth
            if next_id < start + num_batches and not prefetch_q.full():
                prefetch_q.put(gather_for(next_id))

        # (4) drain remaining gradients so the host state is final.
        while not grad_q.empty():
            drain_one()
        return result


@dataclass(frozen=True)
class PipelineScheduleResult:
    """Outcome of the bounded-buffer pipeline timing recurrence."""

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
    stage_times: np.ndarray,
    queue_capacity: int | Sequence[int] = 1,
) -> PipelineScheduleResult:
    """Makespan of an in-order pipeline with bounded inter-stage buffers.

    Parameters
    ----------
    stage_times:
        ``(num_items, num_stages)`` per-item stage durations in
        seconds.  For EL-Rec's trainer the stages are (CPU embedding
        gather + update, H2D/D2H transfer, GPU forward+backward).
    queue_capacity:
        Buffer slots between consecutive stages (scalar or one value
        per gap).  Capacity 1 with three stages reproduces "EL-Rec
        (Sequential)" behaviour only in the degenerate single-slot
        sense; the *true* sequential time is ``stage_times.sum()``.

    Notes
    -----
    Standard blocking-after-service recurrence: item ``i`` finishes
    stage ``s`` at

    ``end[i,s] = max(end[i,s-1], end[i-1,s], end[i-c_s, s+1]) + t[i,s]``

    where the third term models backpressure from a full downstream
    buffer of capacity ``c_s``.
    """
    # Simulated seconds, not model state: float64 whatever the model's dtype.
    times = np.asarray(stage_times, dtype=np.float64)
    if times.ndim != 2 or times.size == 0:
        raise ValueError(
            f"stage_times must be a non-empty 2-D array, got shape {times.shape}"
        )
    if np.any(times < 0):
        raise ValueError("stage durations must be non-negative")
    num_items, num_stages = times.shape
    if isinstance(queue_capacity, (int, np.integer)):
        caps = [int(queue_capacity)] * max(0, num_stages - 1)
    else:
        caps = [int(c) for c in queue_capacity]
        if len(caps) != num_stages - 1:
            raise ValueError(
                f"expected {num_stages - 1} queue capacities, got {len(caps)}"
            )
    if any(c < 1 for c in caps):
        raise ValueError("queue capacities must be >= 1")

    end = np.zeros((num_items, num_stages))
    for i in range(num_items):
        for s in range(num_stages):
            ready = end[i, s - 1] if s > 0 else 0.0
            busy = end[i - 1, s] if i > 0 else 0.0
            if s < num_stages - 1 and i - caps[s] >= 0:
                backpressure = end[i - caps[s], s + 1]
            else:
                backpressure = 0.0
            end[i, s] = max(ready, busy, backpressure) + times[i, s]
    return PipelineScheduleResult(
        finish_times=end,
        makespan=float(end[-1, -1]),
        stage_busy=times.sum(axis=0),
    )
