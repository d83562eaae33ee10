"""GPU-side embedding cache with life-cycle management (paper §V-B).

Pipelined DLRM training prefetches host-resident embedding rows a few
batches ahead, so a prefetched row can be *stale*: an in-flight batch
may still owe it a gradient update (the read-after-write conflict of
Figure 10a).  The paper's fix is a small software-managed cache on the
worker:

* after a batch's update completes on the worker, its embedding rows
  are ``put`` into the cache with a life-cycle (LC) counter equal to
  the maximum request-queue length;
* each prefetched batch is ``synchronize``\\ d against the cache — rows
  found in the cache are replaced by the cache's fresh values;
* whenever the server drains one batch from the gradient queue (host
  memory now reflects that batch), ``decrement`` lowers the LC of that
  batch's rows; rows reaching LC 0 are evicted.

The cache therefore only ever holds rows whose updates have not yet
landed in host memory — the minimal footprint the paper claims.

Rows are stored in one contiguous buffer with a free-slot stack so the
footprint is explicit and bounded.  The index is two parallel arrays —
the cached row ids kept ascending and the buffer row of each — searched
with one ``np.searchsorted`` per call, so no operation loops over rows
in Python and the index grows with occupancy, never with the table (a
dense ``row -> slot`` map would be O(table rows) on the worker: what
§V-B exists to avoid).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.backend import DEFAULT_DTYPE, ZONE_LC_CACHE, get_backend
from repro.backend.protocol import DTypeLike
from repro.utils.validation import check_1d_int_array, check_positive

__all__ = ["EmbeddingCache"]

FloatArray = npt.NDArray[np.floating]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

_INITIAL_CAPACITY = 64


class EmbeddingCache:
    """LC-managed embedding cache.

    Parameters
    ----------
    embedding_dim:
        Width of cached rows.
    default_lifecycle:
        LC assigned on ``put`` — set this to the maximum combined
        length of the prefetch and gradient queues (paper §V-B).
    dtype:
        Row dtype: the model's, so the rows it stores and hands back
        are the server's rows without a cast.

    Notes
    -----
    ``put`` on an already-cached index overwrites the value and resets
    its LC: the row has been written again by a newer batch and must
    survive until *that* batch's gradients reach host memory.
    """

    def __init__(
        self,
        embedding_dim: int,
        default_lifecycle: int,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        check_positive(embedding_dim, "embedding_dim")
        check_positive(default_lifecycle, "default_lifecycle")
        self.embedding_dim: int = int(embedding_dim)
        self.default_lifecycle: int = int(default_lifecycle)
        self.dtype = np.dtype(dtype)
        self._keys: IntArray = np.empty(0, dtype=np.int64)  # cached ids, ascending
        self._key_slots: IntArray = np.empty(0, dtype=np.int64)  # their buffer rows
        self._buffer: FloatArray = get_backend().zeros(
            (_INITIAL_CAPACITY, self.embedding_dim), dtype=self.dtype
        )
        self._lifecycle: IntArray = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        # Free buffer rows: a stack in ``_free[:_num_free]``, top last.
        self._free: IntArray = np.arange(_INITIAL_CAPACITY - 1, -1, -1, dtype=np.int64)
        self._num_free: int = _INITIAL_CAPACITY
        self.hits: int = 0
        self.misses: int = 0
        self.evictions: int = 0

    # -- index and capacity management ---------------------------------
    def _find(self, idx: IntArray) -> Tuple[IntArray, BoolArray]:
        """Each id's position (or insertion point) in ``_keys`` and if it is there."""
        pos = np.searchsorted(self._keys, idx)
        if not self._keys.size:
            return pos, np.zeros(idx.size, dtype=np.bool_)
        # An id past the last key clips onto that key, which it exceeds.
        return pos, self._keys.take(pos, mode="clip") == idx

    def _slot_of(self, index: int) -> Optional[int]:
        pos = int(np.searchsorted(self._keys, index))
        if pos < self._keys.size and self._keys[pos] == index:
            return int(self._key_slots[pos])
        return None

    def _allocate(self, count: int) -> IntArray:
        """Pop ``count`` free buffer rows, doubling the buffer until they exist."""
        old = capacity = self._buffer.shape[0]
        while self._num_free + capacity - old < count:
            capacity *= 2
        if capacity > old:
            added = capacity - old
            self._buffer = np.vstack(
                [
                    self._buffer,
                    get_backend().zeros((added, self.embedding_dim), dtype=self.dtype),
                ]
            )
            self._lifecycle = np.concatenate(
                [self._lifecycle, np.zeros(added, dtype=np.int64)]
            )
            # The new rows go *under* the stack: rows freed by evictions
            # are reused before the buffer's fresh tail, lowest row first.
            free = np.empty(capacity, dtype=np.int64)
            free[:added] = np.arange(capacity - 1, old - 1, -1, dtype=np.int64)
            free[added : added + self._num_free] = self._free[: self._num_free]
            self._free = free
            self._num_free += added
        top = self._num_free
        self._num_free = top - count
        return self._free[self._num_free : top][::-1]

    # -- cache operations ----------------------------------------------
    def put(self, indices: IntArray, values: FloatArray) -> None:
        """Insert (or refresh) rows after a batch's update completes.

        Duplicate indices within the call are allowed; the *last*
        occurrence wins, matching sequential write order.
        """
        idx = check_1d_int_array(indices, "indices", min_value=0)
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (idx.size, self.embedding_dim):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"({idx.size}, {self.embedding_dim})"
            )
        pos, found = self._find(idx)
        if not found.all():
            missing = ~found
            new_ids, first = np.unique(idx[missing], return_index=True)
            # New rows take their slots in the order the call first names them.
            new_slots = np.empty(new_ids.size, dtype=np.int64)
            new_slots[np.argsort(first)] = self._allocate(new_ids.size)
            at = pos[missing][first]
            self._keys = np.insert(self._keys, at, new_ids)
            self._key_slots = np.insert(self._key_slots, at, new_slots)
            pos = np.searchsorted(self._keys, idx)
        slots = self._key_slots[pos]
        self._buffer[slots] = values  # an id named twice keeps its last value
        self._lifecycle[slots] = self.default_lifecycle

    def synchronize(
        self, indices: IntArray, values: FloatArray
    ) -> Tuple[FloatArray, BoolArray]:
        """Overwrite stale prefetched rows with cached fresh values.

        Parameters
        ----------
        indices:
            Row ids of a prefetched embedding batch.
        values:
            The (possibly stale) prefetched rows, ``(len(indices), dim)``.

        Returns
        -------
        (fresh_values, hit_mask):
            ``fresh_values`` is a new array with cache hits replaced;
            ``hit_mask[i]`` is True where the cache supplied the row.
        """
        idx = check_1d_int_array(indices, "indices", min_value=0)
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (idx.size, self.embedding_dim):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"({idx.size}, {self.embedding_dim})"
            )
        fresh = values.copy()
        pos, hit_mask = self._find(idx)
        num_hits = int(hit_mask.sum())
        if num_hits:
            bk = get_backend()
            with bk.zone(ZONE_LC_CACHE):
                fresh[hit_mask] = bk.gather_rows(
                    self._buffer, self._key_slots[pos[hit_mask]]
                )
        self.hits += num_hits
        self.misses += idx.size - num_hits
        return fresh, hit_mask

    def decrement(self, indices: IntArray) -> int:
        """Lower LC of the given rows by one; evict rows reaching zero.

        Called when the server drains one batch from the gradient
        queue.  Duplicate indices in the call decrement only once
        (a batch touches each unique row once on the host side).
        Returns the number of evictions.
        """
        idx = check_1d_int_array(indices, "indices", min_value=0)
        pos, found = self._find(idx)
        # Mark the keys the call names: a repeated id marks its key once,
        # and the marks read back in ascending-id order.
        named = np.zeros(self._keys.size, dtype=np.bool_)
        named[pos[found]] = True
        pos = np.flatnonzero(named)
        slots = self._key_slots[pos]
        self._lifecycle[slots] -= 1
        dead = self._lifecycle[slots] <= 0
        evicted = int(dead.sum())
        if evicted:
            # Freed rows go back on the stack in ascending-id order.
            self._free[self._num_free : self._num_free + evicted] = slots[dead]
            self._num_free += evicted
            self._keys = np.delete(self._keys, pos[dead])
            self._key_slots = np.delete(self._key_slots, pos[dead])
        self.evictions += evicted
        return evicted

    def get(self, index: int) -> Optional[FloatArray]:
        """Fetch one cached row (copy), or None on miss."""
        slot = self._slot_of(int(index))
        if slot is None:
            return None
        return self._buffer[slot].copy()

    def lifecycle_of(self, index: int) -> Optional[int]:
        """Remaining LC of a cached row, or None if absent."""
        slot = self._slot_of(int(index))
        if slot is None:
            return None
        return int(self._lifecycle[slot])

    def __contains__(self, index: int) -> bool:
        return self._slot_of(int(index)) is not None

    def __len__(self) -> int:
        return int(self._keys.size)

    @property
    def nbytes(self) -> int:
        """Everything the cache holds: the row buffer, the LC counters
        and the free-slot stack (allocated capacity, not occupancy) plus
        the two key arrays (16 bytes per cached row)."""
        return (
            self._buffer.nbytes
            + self._lifecycle.nbytes
            + self._free.nbytes
            + self._keys.nbytes
            + self._key_slots.nbytes
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        capacity = self._buffer.shape[0]
        self._keys = np.empty(0, dtype=np.int64)
        self._key_slots = np.empty(0, dtype=np.int64)
        self._lifecycle.fill(0)
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._num_free = capacity
