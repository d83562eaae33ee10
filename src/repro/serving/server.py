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

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, get_backend
from repro.data.dataloader import Batch
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.inference import HotRowCachedLookup
from repro.embeddings.protocol import CompressedEmbedding
from repro.models.dlrm import DLRM
from repro.nn.loss import BCEWithLogitsLoss
from repro.serving.metrics import ServedBatch

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
    :class:`~repro.embeddings.inference.HotRowCachedLookup`; dense bags
    and uncached compressed bags are used directly.  The wrapped model
    is treated as frozen — the view never trains it.

    Parameters
    ----------
    model:
        The (snapshot-restored) DLRM to serve.
    hot_rows:
        Mapping from table index to hot-row ids for that table.  Tables
        absent from the map get no cache and are served by the bag
        directly; tables mapped to an *empty* array get an empty cache
        (every lookup counts as a miss), keeping hit-rate denominators
        comparable across coverage sweeps.  Entries for dense tables
        are ignored — a dense lookup is already a plain gather, so the
        whole table is effectively hot (this lets one coverage map
        span mixed dense/TT models, e.g. PS-trainer snapshots whose
        host tables materialize dense).
    version:
        Monotonic model version stamped onto every prediction, so
        results can be attributed across hot swaps.
    on_stale:
        Staleness policy for the underlying caches (serving snapshots
        are frozen, so the default ``"raise"`` should never fire; it
        turns accidental in-place training into a loud error).
    """

    def __init__(
        self,
        model: DLRM,
        hot_rows: Optional[HotRowMap] = None,
        version: int = 0,
        on_stale: str = "raise",
    ) -> None:
        self.model = model
        self.version = int(version)
        self.hot_rows = dict(hot_rows or {})
        self._views: List[_LookupView] = []
        self.cached_views: List[HotRowCachedLookup] = []
        for t, bag in enumerate(model.embedding_bags):
            rows = self.hot_rows.get(t)
            if rows is None:
                self._views.append(bag)
                continue
            if isinstance(bag, DenseEmbeddingBag) or not isinstance(
                bag, CompressedEmbedding
            ):
                self._views.append(bag)
                continue
            view = HotRowCachedLookup(bag, rows, on_stale=on_stale)
            self._views.append(view)
            self.cached_views.append(view)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities, sparse arms routed through the caches.

        Mirrors :meth:`DLRM.forward` exactly, substituting each cached
        view for its bag; with no caches configured the output is the
        model's own ``predict_proba`` bit for bit.
        """
        model = self.model
        if batch.num_tables != model.config.num_tables:
            raise ValueError(
                f"batch has {batch.num_tables} sparse features, model "
                f"expects {model.config.num_tables}"
            )
        # The serving zone is the outer attribution: MLP / interaction /
        # TT kernels re-tag themselves inside it (innermost zone wins),
        # so only otherwise-unzoned serving work lands here.
        with get_backend().zone(ZONE_SERVING_LOOKUP):
            dense_out = model.bottom_mlp.forward(batch.dense)
            pooled = [
                view.forward(idx, off)
                for view, idx, off in zip(
                    self._views, batch.sparse_indices, batch.sparse_offsets
                )
            ]
            interacted = model.interaction.forward(dense_out, pooled)
            logits = model.top_mlp.forward(interacted).reshape(-1)
            return BCEWithLogitsLoss.predict_proba(logits)

    def refresh(self) -> None:
        """Re-materialize every cache from the current cores."""
        for view in self.cached_views:
            view.refresh()

    # -- sharing -------------------------------------------------------
    def freeze(self) -> None:
        """Mark every array this view serves from read-only.

        MLP parameters, every bag's state arrays (TT cores, codec
        tables) and the hot-row tables.  After this, training the
        wrapped model or writing through any :meth:`view` raises
        instead of changing what the other views serve.
        """
        for param in self.model.parameters():
            param.data.setflags(write=False)
        for bag in self.model.embedding_bags:
            for name, array in sorted(bag.state_arrays().items()):
                array.setflags(write=False)
        for cached in self.cached_views:
            cached.freeze()

    def view(self) -> "ServingModel":
        """A serving model over the same arrays with its own counters.

        Shares the wrapped model and the hot-row tables; owns its
        ``version`` stamp and each cached arm's hit/miss counters, so
        per-view lookup accounting is exact however many views serve.
        """
        twin = copy.copy(self)
        twin._views = [
            v.view() if isinstance(v, HotRowCachedLookup) else v
            for v in self._views
        ]
        twin.cached_views = [
            v for v in twin._views if isinstance(v, HotRowCachedLookup)
        ]
        return twin

    # -- cache accounting ----------------------------------------------
    @property
    def hot_lookups(self) -> int:
        return sum(v.hits for v in self.cached_views)

    @property
    def cold_lookups(self) -> int:
        return sum(v.misses for v in self.cached_views)

    @property
    def hit_rate(self) -> float:
        total = self.hot_lookups + self.cold_lookups
        return self.hot_lookups / total if total else 0.0

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
