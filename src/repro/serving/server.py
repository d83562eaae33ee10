"""What a serving replica runs: the model view and its cost model.

The serving counterpart of :mod:`repro.system.pipeline`'s stage costs.
Latency is *simulated*: a :class:`ServiceTimeModel` charges each batch
a fixed launch cost plus per-sample and per-row terms, with cold
(TT-contraction) lookups costing more than hot (cached-gather) ones.
The numerics, by contrast, are *real*: every batch runs through an
actual :class:`~repro.models.dlrm.DLRM` whose cached compressed arms
(TT, hash, ROBE, PQ, ...) are served together by one
:class:`~repro.embeddings.inference.HotRowCachedLookup`
(:class:`ServingModel`), so a micro-batch pays once per batch, not
once per table, and the predictions returned to clients are the
model's true outputs.  :func:`replay_batches` is the offline
oracle the online predictions are checked against.  The event loop
that drives these lives in :mod:`repro.serving.fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, get_backend
from repro.data.dataloader import Batch
from repro.embeddings.base import bag_boundaries, bags_of_one_everywhere, pool_bags
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup
from repro.embeddings.protocol import CompressedEmbedding
from repro.models.dlrm import DLRM
from repro.nn.interaction import place_embedding
from repro.nn.loss import BCEWithLogitsLoss
from repro.serving.metrics import ServedBatch
from repro.utils.validation import check_1d_int_array, ids_within

__all__ = [
    "ServiceTimeModel",
    "ServingModel",
    "hot_rows_key",
    "replay_batches",
]

HotRowMap = Dict[int, np.ndarray]


def hot_rows_key(hot_rows: Optional[HotRowMap]) -> Tuple[Any, ...]:
    """Hashable identity of a hot-row map's *contents*.

    Two maps get the same key exactly when they name the same tables
    with equal id arrays (dtype, shape and bytes), whatever dict or
    array objects carry them.
    """
    entries = []
    for t, rows in sorted((hot_rows or {}).items()):
        arr = np.asarray(rows)
        entries.append((int(t), arr.dtype.str, arr.shape, arr.tobytes()))
    return tuple(entries)


@dataclass(frozen=True)
class ServiceTimeModel:
    """Deterministic cost model for one micro-batch's service time.

    ``duration = base + per_sample * B + per_hot * hits + per_cold *
    misses`` — a fixed kernel-launch cost amortized over the batch,
    with TT-contraction (cold) lookups an order of magnitude more
    expensive than cached-gather (hot) ones.  Defaults are loosely
    calibrated to the paper's inference measurements but the absolute
    scale only matters relative to the arrival rate.
    """

    base: float = 1e-4
    per_sample: float = 2e-6
    per_hot: float = 5e-8
    per_cold: float = 2e-6

    def __post_init__(self) -> None:
        for name in ("base", "per_sample", "per_hot", "per_cold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def duration(self, batch_size: int, hot: int, cold: int) -> float:
        """Service time in seconds for one coalesced batch."""
        return (
            self.base
            + self.per_sample * batch_size
            + self.per_hot * hot
            + self.per_cold * cold
        )


class ServingModel:
    """Read-only inference view of a DLRM with hot-row-cached arms.

    Wraps a model so every compressed embedding bag (TT, hash, ROBE,
    PQ, ...) with configured hot rows is served through one
    :class:`~repro.embeddings.inference.HotRowCachedLookup` over all of
    them (:attr:`cached_lookup`); uncached compressed bags are used
    directly, and dense bags are read as one gather each from their
    current ``weight``.  The wrapped model is treated as frozen — the
    view never trains it.

    Parameters
    ----------
    model:
        The (snapshot-restored) DLRM to serve.
    hot_rows:
        Mapping from table index to hot-row ids for that table.  Tables
        absent from the map get no cache and are served by the bag
        directly; tables mapped to an *empty* array get an empty cache
        (every lookup is cold), keeping hit-rate denominators
        comparable across coverage sweeps.  Entries for dense tables
        are ignored — a dense lookup is already a plain gather, so the
        whole table is effectively hot (this lets one coverage map
        span mixed dense/TT models, e.g. PS-trainer snapshots whose
        host tables materialize dense).
    version:
        Monotonic model version stamped onto every prediction, so
        results can be attributed across hot swaps.

    Nothing on a serving model changes when it predicts, and
    :meth:`lookup_counts` reads a batch's hot/cold split off the batch,
    so one frozen instance (:meth:`freeze`) serves any number of
    replicas at once.  A cache whose bag trained after it was built
    raises :class:`~repro.embeddings.inference.StaleCacheError`.
    """

    def __init__(
        self,
        model: DLRM,
        hot_rows: Optional[HotRowMap] = None,
        version: int = 0,
    ) -> None:
        self.model = model
        self.version = int(version)
        self.hot_rows = dict(hot_rows or {})
        bags = model.embedding_bags
        dense_arms = [
            (t, bag) for t, bag in enumerate(bags) if isinstance(bag, DenseEmbeddingBag)
        ]
        dense_tables = {t for t, _ in dense_arms}
        compressed = [t for t in range(len(bags)) if t not in dense_tables]
        cached = [
            t for t in compressed
            if t in self.hot_rows and isinstance(bags[t], CompressedEmbedding)
        ]
        self._cached_tables = tuple(cached)
        #: Every cached table behind one lookup (slot ``s`` is table
        #: ``_cached_tables[s]``); ``None`` when no table is cached.
        self.cached_lookup = (
            HotRowCachedLookup(
                [bags[t] for t in cached], [self.hot_rows[t] for t in cached]
            )
            if cached else None
        )
        #: The cached tables' slots in the interaction's feature stack.
        self._cached_slots = np.array([1 + t for t in cached], dtype=np.int64)
        #: Dense tables are served by a gather from the bag's live
        #: ``weight``, uncached compressed ones by their bag's ``forward``.
        self._dense_arms = tuple(dense_arms)
        self._uncached_tables = tuple(t for t in compressed if t not in cached)
        #: Largest valid id of each dense arm, in ``_dense_arms`` order.
        self._dense_max_ids = np.array(
            [bag.num_embeddings - 1 for _, bag in dense_arms], dtype=np.int64
        )

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities, cached arms served by the hot-row lookup.

        Computes :meth:`DLRM.forward`'s arithmetic, substituting the
        cached lookup for the cached bags; with no caches configured the
        output is the model's own ``predict_proba`` bit for bit.  Every
        feature is written into its slot of the interaction's
        ``(n, F, d)`` stack.  The dense tables skip their bag's
        ``forward``: their ids are range-checked together, before
        anything is gathered, and each table is then one gather from
        the bag's current ``weight``.  The cached tables are one
        :meth:`HotRowCachedLookup.lookup` call, written into their
        slots in one assignment.
        """
        model = self.model
        if batch.num_tables != model.config.num_tables:
            raise ValueError(
                f"batch has {batch.num_tables} sparse features, model "
                f"expects {model.config.num_tables}"
            )
        dense_inputs = self._dense_inputs(batch)
        # The serving zone is the outer attribution: MLP / interaction /
        # TT kernels re-tag themselves inside it (innermost zone wins),
        # so only otherwise-unzoned serving work lands here.
        with get_backend().zone(ZONE_SERVING_LOOKUP):
            dense_out = model.bottom_mlp.forward(batch.dense)
            num, dim = dense_out.shape
            features = 1 + len(model.embedding_bags)
            stacked = np.empty((num, features, dim), dtype=model.config.dtype)
            stacked[:, 0, :] = dense_out
            for (t, bag), (idx, bounds) in zip(self._dense_arms, dense_inputs):
                rows = bag.weight.take(idx, axis=0)
                place_embedding(stacked, t, pool_bags(rows, bounds))
            if self.cached_lookup is not None:
                self._place_cached(stacked, batch)
            for t in self._uncached_tables:
                bag = model.embedding_bags[t]
                pooled = bag.forward(batch.sparse_indices[t], batch.sparse_offsets[t])
                place_embedding(stacked, t, pooled)
            interacted = model.interaction.forward_stack(stacked)
            logits = model.top_mlp.forward(interacted).reshape(-1)
            return BCEWithLogitsLoss.predict_proba(logits)

    def _place_cached(self, stacked: np.ndarray, batch: Batch) -> None:
        """Every cached table's pooled rows into its slot, in one lookup.

        The lookup returns the tables' bags slot-major, ``(T_c * n, d)``:
        viewed as ``(T_c, n, d)`` and transposed, that fills the stack's
        cached slots in one assignment.  Offsets that make other than
        ``n`` bags in some table are rejected rather than misplaced.
        """
        assert self.cached_lookup is not None
        tables = self._cached_tables
        pooled = self.cached_lookup.lookup(
            [batch.sparse_indices[t] for t in tables],
            [batch.sparse_offsets[t] for t in tables],
        )
        num, _, dim = stacked.shape
        if pooled.shape != (len(tables) * num, dim):
            raise ValueError(
                f"cached embeddings pooled to {pooled.shape[0]} bags, "
                f"expected {len(tables)} tables x {num}"
            )
        stacked[:, self._cached_slots, :] = pooled.reshape(
            len(tables), num, dim
        ).transpose(1, 0, 2)

    def _dense_inputs(
        self, batch: Batch
    ) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Each dense arm's ``(ids, bag boundaries)``, checked up front.

        All dense ids are range-checked in one comparison against their
        tables' row counts, and ``arange(n + 1)`` offsets on every arm
        (bags of one: every serving micro-batch) are recognised in one
        more.  Anything else takes each bag's own checks, arm by arm in
        table order, so a bad batch raises what that bag's ``forward``
        would have raised — before any row is gathered.
        """
        arms = self._dense_arms
        if not arms:
            return []
        ids = [batch.sparse_indices[t] for t, _ in arms]
        if ids_within(ids, self._dense_max_ids) is None:
            ids = [
                check_1d_int_array(
                    idx, "indices", min_value=0,
                    max_value=bag.num_embeddings - 1,
                )
                for (_, bag), idx in zip(arms, ids)
            ]
        offsets = [batch.sparse_offsets[t] for t, _ in arms]
        if bags_of_one_everywhere([idx.size for idx in ids], offsets, batch.batch_size):
            return [(idx, None) for idx in ids]
        return [
            (idx, bag_boundaries(off, idx.size))
            for idx, off in zip(ids, offsets)
        ]

    def lookup_counts(self, batch: Batch) -> Tuple[int, int]:
        """``(hot, cold)`` ids of ``batch`` over the cached tables.

        A cached table's id is hot when it is in that table's hot set
        and cold otherwise; uncached and dense tables count neither.
        The split depends on the batch alone, read through the cached
        lookup's one key search; ``(0, 0)`` with nothing cached.
        """
        if self.cached_lookup is None:
            return 0, 0
        ids = [batch.sparse_indices[t] for t in self._cached_tables]
        hot = self.cached_lookup.count_hot(ids)
        return hot, sum(idx.size for idx in ids) - hot

    def refresh(self) -> None:
        """Re-materialize the hot rows and TT cores from the current model.

        For a model trained in place; a snapshot's frozen model never is.
        """
        if self.cached_lookup is not None:
            self.cached_lookup.refresh()

    # -- sharing -------------------------------------------------------
    def freeze(self) -> None:
        """Mark every array this view serves from read-only.

        MLP parameters, every bag's state arrays (TT cores, codec
        tables) and the hot-row tables.  After this, training the
        wrapped model raises instead of changing what every replica
        sharing it serves.
        """
        for param in self.model.parameters():
            param.data.setflags(write=False)
        for bag in self.model.embedding_bags:
            for name, array in sorted(bag.state_arrays().items()):
                array.setflags(write=False)
        if self.cached_lookup is not None:
            self.cached_lookup.freeze()

    # -- cache footprint -----------------------------------------------
    @property
    def num_hot_rows(self) -> int:
        lookup = self.cached_lookup
        return 0 if lookup is None else lookup.num_hot_rows

    @property
    def cache_nbytes(self) -> int:
        lookup = self.cached_lookup
        return 0 if lookup is None else lookup.cache_nbytes


def replay_batches(
    serving_model: ServingModel, served_batches: Sequence[ServedBatch]
) -> Dict[int, float]:
    """Offline re-inference of served batches for verification.

    Runs each recorded coalesced batch through ``serving_model`` and
    returns per-request predictions.  Built from the same snapshot with
    the same hot rows, the replay reproduces the online predictions
    bit for bit — the hot-swap correctness check in the test suite.
    """
    predictions: Dict[int, float] = {}
    for served in served_batches:
        probs = serving_model.predict_proba(served.batch)
        for request_id, prob in zip(served.request_ids, probs):
            predictions[request_id] = float(prob)
    return predictions
