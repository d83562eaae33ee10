"""Serving-time hot-row cache over a compressed table.

Training wants the compressed representation (small, updatable);
serving wants latency.  Because the access distribution is power-law
(paper Figure 4a), materializing a small set of *hot* rows captures
most lookups: hot indices are served by a plain gather while the long
tail falls back to the strategy's row reconstruction (TT contraction,
ROBE chunk gather, PQ centroid concat, ...).  This combines the
paper's two observations — FAE-style hot caching and TT compression —
on the inference path.

The cache works over any
:class:`~repro.embeddings.protocol.CompressedEmbedding` except a plain
dense table, where a "cache" would just duplicate rows a single gather
already serves — constructing one over a dense bag raises.

The view is read-only and keeps no per-lookup state: how many of a
batch's ids were hot is a function of the ids and the hot set
(:meth:`HotRowCachedLookup.count_hot`), not a counter.  Staleness is
*detected*, not trusted to the caller: every bag carries a monotonic
``version`` counter that increments on any parameter update, and the
view snapshots it when the hot rows are materialized.  A lookup against
a bag that has trained since then raises :class:`StaleCacheError`
until :meth:`HotRowCachedLookup.refresh` rebuilds the rows.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, get_backend
from repro.embeddings.base import EmbeddingBagBase, bag_boundaries, pool_bags
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.protocol import CompressedEmbedding
from repro.utils.validation import check_1d_int_array

__all__ = ["HotRowCachedLookup", "StaleCacheError"]


class StaleCacheError(RuntimeError):
    """The underlying parameters changed since the hot rows were built."""


class HotRowCachedLookup:
    """Read-only lookup view with materialized hot rows.

    Parameters
    ----------
    bag:
        The compressed table to serve from — any
        :class:`CompressedEmbedding` except a dense one.
    hot_rows:
        Row indices to materialize (e.g. the most frequent rows from a
        profiling pass, ``ZipfSampler.top_rows(n)``, or
        ``ZipfSampler.rows_covering(0.9)`` many).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.embeddings import EffTTEmbeddingBag
    >>> bag = EffTTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
    >>> view = HotRowCachedLookup(bag, hot_rows=np.arange(100))
    >>> out = view.forward(np.array([3, 500]), np.array([0, 1]))
    >>> out.shape
    (2, 8)
    >>> view.count_hot(np.array([3, 500]))
    1
    """

    def __init__(self, bag: CompressedEmbedding, hot_rows: np.ndarray) -> None:
        if isinstance(bag, DenseEmbeddingBag):
            raise TypeError(
                "dense tables need no hot-row cache — a lookup is already "
                "one gather; serve the bag directly"
            )
        if not isinstance(bag, CompressedEmbedding):
            raise TypeError(
                f"bag must be a compressed table, got {type(bag).__name__}"
            )
        self.bag = bag
        #: Cold rows for indices the view already range-checked: the
        #: shell's codec hook, so the check is not repeated per miss.
        self._cold_rows: Callable[[np.ndarray], np.ndarray] = (
            bag._reconstruct
            if isinstance(bag, EmbeddingBagBase)
            else bag.reconstruct_rows
        )
        hot = np.unique(
            check_1d_int_array(
                hot_rows, "hot_rows", min_value=0,
                max_value=bag.num_embeddings - 1,
            )
        )
        self._hot_rows = hot
        self._hot_values: Optional[np.ndarray] = None
        self._cached_version = -1
        self.refresh()

    def refresh(self) -> None:
        """Re-materialize the hot rows from the current parameters."""
        if self._hot_rows.size:
            self._hot_values = self.bag.reconstruct_rows(self._hot_rows)
        else:
            self._hot_values = np.zeros(
                (0, self.bag.embedding_dim), dtype=self.bag.dtype
            )
        self._cached_version = self.bag.version

    def freeze(self) -> None:
        """Make the hot-row ids and values read-only (shared state)."""
        assert self._hot_values is not None
        self._hot_rows.setflags(write=False)
        self._hot_values.setflags(write=False)

    @property
    def is_stale(self) -> bool:
        """Whether the bag has updated since the last refresh."""
        return self.bag.version != self._cached_version

    def _check_fresh(self) -> None:
        if self.is_stale:
            raise StaleCacheError(
                f"bag at version {self.bag.version} but hot rows were "
                f"materialized at version {self._cached_version}; call "
                "refresh() after training"
            )

    # ------------------------------------------------------------------
    def _split(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions of cached indices and their slots in the cache."""
        pos = np.searchsorted(self._hot_rows, idx)
        pos = np.minimum(pos, max(0, self._hot_rows.size - 1))
        if self._hot_rows.size:
            is_hot = self._hot_rows[pos] == idx
        else:
            is_hot = np.zeros(idx.size, dtype=bool)
        return is_hot, pos

    def _validated(self, indices: np.ndarray) -> np.ndarray:
        """The view's one range check; nothing below it re-validates."""
        return check_1d_int_array(
            indices, "indices", min_value=0,
            max_value=self.bag.num_embeddings - 1,
        )

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """One row per validated index: hot from the table, cold rebuilt."""
        self._check_fresh()
        is_hot, pos = self._split(idx)
        bk = get_backend()
        num_hot = int(np.count_nonzero(is_hot))
        num_cold = idx.size - num_hot
        with bk.zone(ZONE_SERVING_LOOKUP):
            rows = bk.empty((idx.size, self.bag.embedding_dim), dtype=self.bag.dtype)
            if num_hot:
                rows[is_hot] = bk.gather_rows(self._hot_values, pos[is_hot])
            if num_cold:
                cold = ~is_hot
                rows[cold] = self._cold_rows(idx[cold])
        return rows

    def count_hot(self, indices: np.ndarray) -> int:
        """How many of ``indices`` are hot rows (the rest are rebuilt)."""
        return int(np.count_nonzero(self._split(np.asarray(indices))[0]))

    def lookup_rows(self, indices: np.ndarray) -> np.ndarray:
        """Un-pooled row lookup, cache-accelerated."""
        return self._rows(self._validated(indices))

    def forward(
        self, indices: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Pooled lookup with EmbeddingBag semantics (sum pooling)."""
        idx = self._validated(indices)
        return pool_bags(self._rows(idx), bag_boundaries(offsets, idx.size))

    __call__ = forward

    # ------------------------------------------------------------------
    @property
    def num_hot_rows(self) -> int:
        return int(self._hot_rows.size)

    @property
    def cache_nbytes(self) -> int:
        return 0 if self._hot_values is None else self._hot_values.nbytes
