"""What a serving replica runs: the model view and its cost model.

The serving counterpart of :mod:`repro.system.pipeline`'s stage costs.
Latency is *simulated*: a :class:`ServiceTimeModel` charges each batch
a fixed launch cost plus per-sample and per-row terms, with cold
(TT-contraction) lookups costing more than hot (cached-gather) ones.
The numerics, by contrast, are *real*: every batch runs through an
actual :class:`~repro.models.dlrm.DLRM` whose compressed arms (TT,
hash, ROBE, PQ, ...) are served by
:class:`~repro.embeddings.inference.HotRowCachedLookup` views
(:class:`ServingModel`), and the predictions returned to clients are
the model's true outputs.  :func:`replay_batches` is the offline
oracle the online predictions are checked against.  The event loop
that drives these lives in :mod:`repro.serving.fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, get_backend
from repro.data.dataloader import Batch
from repro.embeddings.base import bag_boundaries, pool_bags
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup
from repro.embeddings.protocol import CompressedEmbedding
from repro.models.dlrm import DLRM
from repro.nn.interaction import place_embedding
from repro.nn.loss import BCEWithLogitsLoss
from repro.serving.metrics import ServedBatch
from repro.utils.validation import check_1d_int_array

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


class _LookupView(Protocol):
    """Anything servable as a pooled embedding lookup (bag or cache)."""

    def forward(
        self, indices: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> np.ndarray: ...


def _bags_of_one(
    ids: Sequence[np.ndarray], offsets: Sequence[np.ndarray], num: int
) -> bool:
    """Whether every arm holds ``num`` ids under ``arange(num + 1)`` offsets."""
    if not all(
        idx.size == num and isinstance(off, np.ndarray)
        and off.shape == (num + 1,) and off.dtype.kind in "iu"
        for idx, off in zip(ids, offsets)
    ):
        return False
    grid = np.concatenate(offsets).reshape(-1, num + 1)
    return bool((grid == np.arange(num + 1)).all())


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

    Wraps a model so each compressed embedding bag (TT, hash, ROBE,
    PQ, ...) with configured hot rows is served through a
    :class:`~repro.embeddings.inference.HotRowCachedLookup`; uncached
    compressed bags are used directly, and dense bags are read as one
    gather each from their current ``weight``.  The wrapped model is
    treated as frozen — the view never trains it.

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
        self._views: List[_LookupView] = []
        cached: List[Tuple[int, HotRowCachedLookup]] = []
        dense_arms: List[Tuple[int, DenseEmbeddingBag]] = []
        lookup_tables: List[int] = []
        for t, bag in enumerate(model.embedding_bags):
            view: _LookupView = bag
            rows = self.hot_rows.get(t)
            if isinstance(bag, DenseEmbeddingBag):
                dense_arms.append((t, bag))
            else:
                lookup_tables.append(t)
                if rows is not None and isinstance(bag, CompressedEmbedding):
                    view = HotRowCachedLookup(bag, rows)
                    cached.append((t, view))
            self._views.append(view)
        self._cached_tables = tuple(cached)
        #: Dense tables are served by a gather from the bag's live
        #: ``weight``, every other table by its view's ``forward``.
        self._dense_arms = tuple(dense_arms)
        self._lookup_tables = tuple(lookup_tables)
        #: Largest valid id of each dense arm, in ``_dense_arms`` order.
        self._dense_max_ids = np.array(
            [bag.num_embeddings - 1 for _, bag in dense_arms], dtype=np.int64
        )

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities, sparse arms routed through the caches.

        Computes :meth:`DLRM.forward`'s arithmetic, substituting each
        cached view for its bag; with no caches configured the output is
        the model's own ``predict_proba`` bit for bit.  Every feature is
        written into its slot of the interaction's ``(n, F, d)`` stack.
        The dense tables skip their bag's ``forward``: their ids are
        range-checked together, before anything is gathered, and each
        table is then one gather from the bag's current ``weight``.
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
            stacked = np.empty((num, 1 + len(self._views), dim), dtype=np.float64)
            stacked[:, 0, :] = dense_out
            for (t, bag), (idx, bounds) in zip(self._dense_arms, dense_inputs):
                rows = bag.weight.take(idx, axis=0)
                place_embedding(stacked, t, pool_bags(rows, bounds))
            for t in self._lookup_tables:
                pooled = self._views[t].forward(
                    batch.sparse_indices[t], batch.sparse_offsets[t]
                )
                place_embedding(stacked, t, pooled)
            interacted = model.interaction.forward_stack(stacked)
            logits = model.top_mlp.forward(interacted).reshape(-1)
            return BCEWithLogitsLoss.predict_proba(logits)

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
        if not self._ids_in_range(ids):
            ids = [
                check_1d_int_array(
                    idx, "indices", min_value=0,
                    max_value=bag.num_embeddings - 1,
                )
                for (_, bag), idx in zip(arms, ids)
            ]
        offsets = [batch.sparse_offsets[t] for t, _ in arms]
        if _bags_of_one(ids, offsets, batch.batch_size):
            return [(idx, None) for idx in ids]
        return [
            (idx, bag_boundaries(off, idx.size))
            for idx, off in zip(ids, offsets)
        ]

    def _ids_in_range(self, ids: Sequence[np.ndarray]) -> bool:
        """Whether every dense arm's ids are 1-D integers within its table."""
        if not all(
            isinstance(idx, np.ndarray) and idx.ndim == 1
            and idx.dtype.kind in "iu"
            for idx in ids
        ):
            return False
        flat = np.concatenate(ids)
        limits = np.repeat(self._dense_max_ids, [idx.size for idx in ids])
        return bool(flat.size == 0 or (flat.min() >= 0 and (flat <= limits).all()))

    @property
    def cached_views(self) -> List[HotRowCachedLookup]:
        """The hot-row caches, in table order."""
        return [view for _, view in self._cached_tables]

    def lookup_counts(self, batch: Batch) -> Tuple[int, int]:
        """``(hot, cold)`` ids of ``batch`` over the cached tables.

        A cached table's id is hot when it is in that table's hot set
        and cold otherwise; uncached and dense tables count neither.
        The split depends on the batch alone.
        """
        hot = total = 0
        for t, view in self._cached_tables:
            idx = batch.sparse_indices[t]
            hot += view.count_hot(idx)
            total += idx.size
        return hot, total - hot

    def refresh(self) -> None:
        """Re-materialize every cache from the current cores."""
        for view in self.cached_views:
            view.refresh()

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
        for cached in self.cached_views:
            cached.freeze()

    # -- cache footprint -----------------------------------------------
    @property
    def num_hot_rows(self) -> int:
        return sum(v.num_hot_rows for v in self.cached_views)

    @property
    def cache_nbytes(self) -> int:
        return sum(v.cache_nbytes for v in self.cached_views)


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
