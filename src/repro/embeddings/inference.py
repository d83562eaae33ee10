"""Serving-time hot-row cache over one or more compressed tables.

Training wants the compressed representation (small, updatable);
serving wants latency.  Because the access distribution is power-law
(paper Figure 4a), materializing a small set of *hot* rows captures
most lookups: hot indices are served by a plain gather while the long
tail falls back to the strategy's row reconstruction (TT contraction,
ROBE chunk gather, PQ centroid concat, ...).  This combines the
paper's two observations — FAE-style hot caching and TT compression —
on the inference path.

One :class:`HotRowCachedLookup` covers any number of tables, so a
serving micro-batch pays per batch, not per table: one range check
over every table's ids, one ``searchsorted`` over one sorted
``(table, row)`` key array, one gather from one hot-row store, and one
TT chain per core signature (``(R_{k-1}, n_k, R_k)`` of every core)
over those tables' cores concatenated along the row-factor axis, each
table's slices offset into the concatenation.  Other strategies
rebuild their cold rows table by table.  A single table is the
one-table case of the same code.

The cache works over any
:class:`~repro.embeddings.protocol.CompressedEmbedding` except a plain
dense table, where a "cache" would just duplicate rows a single gather
already serves — constructing one over a dense bag raises.

The lookup is read-only and keeps no per-lookup state: how many of a
batch's ids were hot is a function of the ids and the hot sets
(:meth:`HotRowCachedLookup.count_hot`), not a counter.  Staleness is
*detected*, not trusted to the caller: every bag carries a monotonic
``version`` counter that increments on any parameter update, and the
lookup snapshots it when the hot rows and the concatenated cores are
built.  A lookup against a bag that has trained since then raises
:class:`StaleCacheError` until :meth:`HotRowCachedLookup.refresh`
rebuilds them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import ZONE_SERVING_LOOKUP, ZONE_TT_RECONSTRUCT, get_backend
from repro.embeddings.base import (
    EmbeddingBagBase,
    bag_boundaries,
    bags_of_one_everywhere,
    pool_bags,
)
from repro.embeddings.dense import DenseEmbeddingBag
from repro.embeddings.protocol import CompressedEmbedding
from repro.embeddings.tt_core import tt_chain_forward
from repro.embeddings.tt_embedding import TTBagBase
from repro.utils.validation import check_1d_int_array, ids_within

__all__ = ["HotRowCachedLookup", "StaleCacheError"]

Bags = Union[CompressedEmbedding, Sequence[CompressedEmbedding]]
Indices = Union[np.ndarray, Sequence[np.ndarray]]


class StaleCacheError(RuntimeError):
    """The underlying parameters changed since the hot rows were built."""


class _TTChain:
    """Cold rows of the TT tables sharing one core signature: one chain.

    Core ``k`` of every member is stacked along its row-factor axis
    ``m_k``; a row's slice index is its own digit plus its table's
    offset into that stack.  Strides, factors and offsets are indexed
    by lookup slot, so one batch's digits are a few vector operations.
    """

    def __init__(self, tables: Sequence[CompressedEmbedding], slots: Sequence[int]):
        self.slots = tuple(slots)
        members = [tables[s] for s in slots]
        assert all(isinstance(bag, TTBagBase) for bag in members)
        tt_bags: List[TTBagBase] = members  # type: ignore[assignment]
        self._bags = tt_bags
        num_cores = tt_bags[0].spec.num_cores
        shape = (num_cores, len(tables))
        self._strides = np.ones(shape, dtype=np.int64)
        self._factors = np.ones(shape, dtype=np.int64)
        self._offsets = np.zeros(shape, dtype=np.int64)
        base = np.zeros(num_cores, dtype=np.int64)
        for slot, bag in zip(slots, tt_bags):
            self._strides[:, slot] = bag.spec.row_strides
            self._factors[:, slot] = bag.spec.row_shape
            self._offsets[:, slot] = base
            base += bag.spec.row_shape
        self.cores: List[np.ndarray] = []

    def refresh(self) -> None:
        """Re-stack the members' current cores."""
        self.cores = [
            np.concatenate([bag.tt.cores[k] for bag in self._bags])
            for k in range(len(self._bags[0].tt.cores))
        ]

    def rows(self, slots: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # (num_cores, L) digits, every core at once: idx // stride % m.
        digits = idx // self._strides[:, slots]
        digits %= self._factors[:, slots]
        digits += self._offsets[:, slots]
        return tt_chain_forward(self.cores, list(digits), ZONE_TT_RECONSTRUCT)[0]


class _TableRows:
    """Cold rows of one non-TT table: its codec, table by table."""

    def __init__(self, bag: CompressedEmbedding, slot: int):
        self.slots = (slot,)
        #: Cold rows for indices the lookup already range-checked: the
        #: shell's codec hook, so the check is not repeated per miss.
        self._rebuild: Callable[[np.ndarray], np.ndarray] = (
            bag._reconstruct
            if isinstance(bag, EmbeddingBagBase)
            else bag.reconstruct_rows
        )
        self.cores: List[np.ndarray] = []

    def refresh(self) -> None:
        pass

    def rows(self, slots: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self._rebuild(idx)


def _cold_groups(
    tables: Sequence[CompressedEmbedding],
) -> List[Union[_TTChain, _TableRows]]:
    """One chain per TT core signature, one entry per other table."""
    chains: Dict[Tuple[object, ...], List[int]] = {}
    order: List[Union[Tuple[object, ...], int]] = []
    for slot, bag in enumerate(tables):
        if isinstance(bag, TTBagBase):
            key = (bag.dtype.str, tuple(c.shape[1:] for c in bag.tt.cores))
            if key not in chains:
                chains[key] = []
                order.append(key)
            chains[key].append(slot)
        else:
            order.append(slot)
    return [
        _TableRows(tables[entry], entry) if isinstance(entry, int)
        else _TTChain(tables, chains[entry])
        for entry in order
    ]


class HotRowCachedLookup:
    """Read-only lookup over one or more tables with materialized hot rows.

    Parameters
    ----------
    bags:
        The compressed table to serve from, or a sequence of them (any
        :class:`CompressedEmbedding` except a dense one; one embedding
        dim and dtype).  A sequence is addressed by position: its
        *slots*.
    hot_rows:
        Row indices to materialize (e.g. the most frequent rows from a
        profiling pass, ``ZipfSampler.top_rows(n)``, or
        ``ZipfSampler.rows_covering(0.9)`` many) — one array, or one
        per bag when ``bags`` is a sequence.

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
    >>> other = EffTTEmbeddingBag(700, 8, tt_rank=4, seed=1)
    >>> both = HotRowCachedLookup([bag, other], [np.arange(100), np.arange(7)])
    >>> both.lookup([np.array([3, 500]), np.array([6])], [None, None]).shape
    (3, 8)
    >>> both.count_hot([np.array([3, 500]), np.array([6])])
    2
    """

    def __init__(self, bags: Bags, hot_rows: Indices) -> None:
        if isinstance(bags, (list, tuple)):
            bag_list = list(bags)
            rows_list = list(hot_rows)
            if len(rows_list) != len(bag_list):
                raise ValueError(
                    f"{len(bag_list)} bags but {len(rows_list)} hot-row arrays"
                )
        else:
            bag_list, rows_list = [bags], [hot_rows]  # type: ignore[list-item]
        if not bag_list:
            raise ValueError("a hot-row cache needs at least one table")
        for bag in bag_list:
            if isinstance(bag, DenseEmbeddingBag):
                raise TypeError(
                    "dense tables need no hot-row cache — a lookup is already "
                    "one gather; serve the bag directly"
                )
            if not isinstance(bag, CompressedEmbedding):
                raise TypeError(
                    f"bag must be a compressed table, got {type(bag).__name__}"
                )
        first = bag_list[0]
        if any(
            bag.embedding_dim != first.embedding_dim or bag.dtype != first.dtype
            for bag in bag_list
        ):
            raise ValueError("cached tables must share one embedding dim and dtype")
        #: The covered tables, by slot.
        self.tables: Tuple[CompressedEmbedding, ...] = tuple(bag_list)
        self.embedding_dim = first.embedding_dim
        self.dtype = np.dtype(first.dtype)
        #: Largest valid id of each slot.
        self._max_ids = np.array(
            [bag.num_embeddings - 1 for bag in bag_list], dtype=np.int64
        )
        #: Slot ``s``'s row ``r`` has key ``_key_base[s] + r``.
        sizes = self._max_ids + 1
        self._key_base = np.cumsum(sizes) - sizes
        hot = [
            np.unique(
                check_1d_int_array(
                    rows, "hot_rows", min_value=0,
                    max_value=bag.num_embeddings - 1,
                )
            )
            for bag, rows in zip(bag_list, rows_list)
        ]
        self._hot_counts = tuple(rows.size for rows in hot)
        #: The hot rows' ids and sorted ``(slot, row)`` keys, slot-major.
        self._hot_rows = np.concatenate(hot)
        self._hot_keys = self._hot_rows + np.repeat(self._key_base, self._hot_counts)
        self._hot_values: Optional[np.ndarray] = None
        self._groups = _cold_groups(bag_list)
        #: Which ``_groups`` entry rebuilds each slot's cold rows.
        self._group_of = np.zeros(len(bag_list), dtype=np.int64)
        for g, group in enumerate(self._groups):
            self._group_of[list(group.slots)] = g
        self._cached_versions: Tuple[int, ...] = ()
        self.refresh()

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def refresh(self) -> None:
        """Re-materialize the hot rows and restack the TT cores."""
        values = [
            bag.reconstruct_rows(self._hot_rows[start : start + count])
            for bag, start, count in zip(
                self.tables,
                np.cumsum(self._hot_counts) - self._hot_counts,
                self._hot_counts,
            )
            if count
        ]
        self._hot_values = (
            np.concatenate(values) if values
            else np.zeros((0, self.embedding_dim), dtype=self.dtype)
        )
        for group in self._groups:
            group.refresh()
        self._cached_versions = tuple(bag.version for bag in self.tables)

    def arrays(self) -> List[np.ndarray]:
        """The lookup's own arrays: hot ids, keys and rows, stacked cores."""
        assert self._hot_values is not None
        stacked = [core for group in self._groups for core in group.cores]
        return [self._hot_rows, self._hot_keys, self._hot_values, *stacked]

    def freeze(self) -> None:
        """Make every array the lookup serves from read-only (shared state)."""
        for array in self.arrays():
            array.setflags(write=False)

    @property
    def is_stale(self) -> bool:
        """Whether any bag has updated since the last refresh."""
        return tuple(bag.version for bag in self.tables) != self._cached_versions

    def _check_fresh(self) -> None:
        versions = tuple(bag.version for bag in self.tables)
        if versions == self._cached_versions:
            return
        slot, now, then = next(
            (slot, now, then)
            for slot, (now, then) in enumerate(zip(versions, self._cached_versions))
            if now != then
        )
        raise StaleCacheError(
            f"table {slot}: bag at version {now} but hot rows were "
            f"materialized at version {then}; call refresh() after training"
        )

    # ------------------------------------------------------------------
    def _per_table(self, indices: Indices) -> List[np.ndarray]:
        per_table = [indices] if isinstance(indices, np.ndarray) else list(indices)
        if len(per_table) != len(self.tables):
            raise ValueError(
                f"expected ids for {len(self.tables)} tables, got {len(per_table)}"
            )
        return per_table

    def _one_table(self, indices: np.ndarray) -> List[np.ndarray]:
        """``[indices]``, for the single-table methods (raises otherwise)."""
        if len(self.tables) != 1:
            raise ValueError(
                f"this lookup covers {len(self.tables)} tables; call lookup()"
            )
        return [indices]

    def _slots(self, sizes: Sequence[int]) -> np.ndarray:
        """Each id's slot, for ids concatenated table by table."""
        return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    def _split(self, slots: np.ndarray, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Which ids are hot, and each id's position in the hot store.

        One ``searchsorted`` over the ``(slot, row)`` keys; the row
        comparison keeps an id outside its table from matching the
        next table's key.
        """
        keys = self._key_base[slots] + idx
        pos = np.searchsorted(self._hot_keys, keys)
        pos = np.minimum(pos, max(0, self._hot_keys.size - 1))
        if self._hot_keys.size:
            is_hot = (self._hot_keys[pos] == keys) & (self._hot_rows[pos] == idx)
        else:
            is_hot = np.zeros(idx.size, dtype=bool)
        return is_hot, pos

    def _validated(self, indices: Indices) -> Tuple[np.ndarray, List[int]]:
        """The lookup's one range check; nothing below it re-validates.

        Every table's ids are compared against their table's row count
        at once; if any fails, the tables are checked one by one in
        slot order, so the error is the one that table's bag raises.
        Returns the ids concatenated table by table, and the counts.
        """
        per_table = self._per_table(indices)
        flat = ids_within(per_table, self._max_ids)
        if flat is not None:
            return flat, [ids.size for ids in per_table]
        checked = [
            check_1d_int_array(
                ids, "indices", min_value=0, max_value=int(max_id),
            )
            for ids, max_id in zip(per_table, self._max_ids)
        ]
        return np.concatenate(checked), [ids.size for ids in checked]

    def _cold_rows(self, slots: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Rebuilt rows of range-checked cold ids: one call per group."""
        if len(self._groups) == 1:
            return self._groups[0].rows(slots, idx)
        bk = get_backend()
        rows = bk.empty((idx.size, self.embedding_dim), dtype=self.dtype)
        group_of = self._group_of[slots]
        for g, group in enumerate(self._groups):
            member = group_of == g
            if member.any():
                rows[member] = group.rows(slots[member], idx[member])
        return rows

    def _rows(self, slots: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """One row per validated id: hot from the store, cold rebuilt."""
        self._check_fresh()
        is_hot, pos = self._split(slots, idx)
        bk = get_backend()
        num_hot = int(np.count_nonzero(is_hot))
        num_cold = idx.size - num_hot
        with bk.zone(ZONE_SERVING_LOOKUP):
            rows = bk.empty((idx.size, self.embedding_dim), dtype=self.dtype)
            if num_hot:
                hot = np.flatnonzero(is_hot)
                rows[hot] = bk.gather_rows(self._hot_values, pos[hot])
            if num_cold:
                cold = np.flatnonzero(~is_hot)
                rows[cold] = self._cold_rows(slots[cold], idx[cold])
        return rows

    @staticmethod
    def _boundaries(
        offsets: Sequence[Optional[np.ndarray]], sizes: Sequence[int]
    ) -> Optional[np.ndarray]:
        """One boundary array over every table's bags, or ``None``.

        ``None`` when every table's bags hold one id each (every
        serving micro-batch): all tables are recognised in one
        comparison when they share one id count.
        """
        if all(off is None for off in offsets) or bags_of_one_everywhere(
            sizes, offsets, sizes[0]
        ):
            return None
        per_table = [bag_boundaries(off, size) for off, size in zip(offsets, sizes)]
        if all(bounds is None for bounds in per_table):
            return None
        starts = np.cumsum(sizes) - sizes
        return np.concatenate(
            [
                (np.arange(size) if bounds is None else bounds[:-1]) + start
                for bounds, size, start in zip(per_table, sizes, starts)
            ]
            + [np.array([sum(sizes)], dtype=np.int64)]
        )

    def lookup(
        self, indices: Sequence[np.ndarray], offsets: Sequence[Optional[np.ndarray]]
    ) -> np.ndarray:
        """Pooled lookup of every table at once (sum pooling).

        ``indices[s]`` and ``offsets[s]`` are slot ``s``'s ids and bag
        offsets, with :meth:`forward`'s semantics.  Returns every
        table's bags stacked in slot order: ``(Σ bags, dim)``.
        """
        if len(offsets) != len(self.tables):
            raise ValueError(
                f"expected offsets for {len(self.tables)} tables, got {len(offsets)}"
            )
        idx, sizes = self._validated(indices)
        rows = self._rows(self._slots(sizes), idx)
        return pool_bags(rows, self._boundaries(offsets, sizes))

    def count_hot(self, indices: Indices) -> int:
        """How many ids are hot rows (the rest are rebuilt).

        ``indices`` is one table's ids, or one array per slot.
        """
        per_table = [np.asarray(ids, dtype=np.int64) for ids in self._per_table(indices)]
        idx = np.concatenate(per_table)
        slots = self._slots([ids.size for ids in per_table])
        return int(np.count_nonzero(self._split(slots, idx)[0]))

    def lookup_rows(self, indices: np.ndarray) -> np.ndarray:
        """Un-pooled row lookup of a single-table lookup, cache-accelerated."""
        idx, sizes = self._validated(self._one_table(indices))
        return self._rows(self._slots(sizes), idx)

    def forward(
        self, indices: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Pooled lookup of a single-table lookup (EmbeddingBag semantics)."""
        return self.lookup(self._one_table(indices), [offsets])

    __call__ = forward

    # ------------------------------------------------------------------
    @property
    def num_hot_rows(self) -> int:
        return int(self._hot_rows.size)

    @property
    def cache_nbytes(self) -> int:
        return 0 if self._hot_values is None else self._hot_values.nbytes
