"""Worker-side half of the parameter-server architecture (§V-A).

The server itself —
:class:`~repro.sharding.server.ShardedParameterServer` — owns the
host-resident tables and hands out :class:`PrefetchedRows`.  Workers
see host tables through :class:`HostBackedEmbeddingBag`, a bag whose
rows are *loaded* per batch rather than owned — the mechanism that lets
one DLRM instance mix GPU-resident Eff-TT tables with host-resident
dense tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import (
    DEFAULT_DTYPE,
    ZONE_PS_APPLY,
    ZONE_PS_GATHER,
    get_backend,
)
from repro.backend.groups import RowGroups, group_rows
from repro.backend.protocol import DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.utils.validation import check_1d_int_array

__all__ = ["HostBackedEmbeddingBag", "PrefetchedRows"]


@dataclass
class PrefetchedRows:
    """One table's prefetched embedding batch (prefetch-queue payload).

    ``rows[i]`` is the host-memory value of ``unique_indices[i]`` at
    gather time — possibly stale by the time the worker consumes it.
    ``groups`` is the gather's grouping of the batch's ids
    (``groups.ids`` is ``unique_indices``), which the worker's lookup
    and gradient sum reuse instead of sorting the ids again.
    """

    table_idx: int
    unique_indices: np.ndarray
    rows: np.ndarray
    groups: Optional[RowGroups] = None


class HostBackedEmbeddingBag(EmbeddingBagBase):
    """Worker-side view of a host-resident table.

    The bag owns no parameters.  Before each forward pass the trainer
    calls :meth:`load_rows` with the (cache-synchronized) prefetched
    rows; backward aggregates per-unique-row gradients which the
    trainer ships through the gradient queue via
    :meth:`pop_row_gradients`.  Its ``dtype`` is the model's, and the
    server's tables are built at it, so loading rows casts nothing.

    One stable sort of the batch's ids serves the whole step: the
    server's gather groups them, the groups ride the prefetch queue
    into :meth:`load_rows`, the lookup gathers through their inverse,
    and the backward sums each group's gradient rows with
    :meth:`RowGroups.sum_rows` straight into the loaded rows' order.
    """

    kind = "host"
    grad_zone = ZONE_PS_APPLY

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        self._loaded_indices: Optional[np.ndarray] = None
        self._loaded_rows: Optional[np.ndarray] = None
        self._groups: Optional[RowGroups] = None

    def load_rows(
        self,
        unique_indices: np.ndarray,
        rows: np.ndarray,
        groups: Optional[RowGroups] = None,
    ) -> None:
        """Install the embedding rows for the upcoming batch.

        ``unique_indices`` must be sorted and unique (the server's
        gather guarantees this).  ``groups``, the gather's grouping of
        the batch's ids, must name exactly those ids; without it the
        lookup groups the ids it is called with itself.
        """
        idx = check_1d_int_array(
            unique_indices,
            "unique_indices",
            min_value=0,
            max_value=self.num_embeddings - 1,
        )
        rows = np.asarray(rows, dtype=self.dtype)
        if rows.shape != (idx.size, self.embedding_dim):
            raise ValueError(
                f"rows shape {rows.shape} does not match "
                f"({idx.size}, {self.embedding_dim})"
            )
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("unique_indices must be strictly increasing")
        if groups is not None and not (
            groups.ids is idx or np.array_equal(groups.ids, idx)
        ):
            raise ValueError("groups do not name the loaded unique_indices")
        self._loaded_indices = idx
        self._loaded_rows = rows
        self._groups = groups

    def _lookup(
        self, idx: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[RowGroups, Optional[np.ndarray]]]:
        groups = self._groups
        if groups is not None:
            inverse = groups.inverse()
            if groups.num_rows != idx.size or not np.array_equal(
                groups.ids[inverse], idx
            ):
                raise ValueError(
                    "the loaded row groups describe another batch's ids"
                )
            return self._gather(groups, inverse)
        groups = group_rows(idx, bound=self.num_embeddings)
        return self._gather(groups, groups.inverse())

    def _reconstruct(self, idx: np.ndarray) -> np.ndarray:
        """Loaded rows for any ids, whatever batch the groups came from."""
        groups = group_rows(idx, bound=self.num_embeddings)
        return self._gather(groups, groups.inverse())[0]

    def _gather(
        self, groups: RowGroups, inverse: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[RowGroups, Optional[np.ndarray]]]:
        """Rows for the ids ``groups`` describes, plus the backward's context.

        The context's ``slots`` place each group among the loaded rows;
        ``None`` when the batch's distinct ids are exactly the loaded
        ones, and only otherwise are they searched for.
        """
        loaded, loaded_rows = self._loaded_indices, self._loaded_rows
        if loaded is None or loaded_rows is None:
            raise RuntimeError("forward called before load_rows")
        slots = None
        if not (groups.ids is loaded or np.array_equal(groups.ids, loaded)):
            slots = np.searchsorted(loaded, groups.ids)
            if slots.size and (
                slots[-1] >= loaded.size or np.any(loaded[slots] != groups.ids)
            ):
                raise KeyError("batch references rows that were not loaded")
        positions = inverse if slots is None else slots[inverse]
        bk = get_backend()
        with bk.zone(ZONE_PS_GATHER):
            rows = bk.gather_rows(loaded_rows, positions)
        return rows, (groups, slots)

    def _cast_grad(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=self.dtype)  # host side: no backend

    def _accumulate(
        self,
        context: Tuple[RowGroups, Optional[np.ndarray]],
        row_grads: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self._loaded_indices is not None
        groups, slots = context
        summed = groups.sum_rows(row_grads)
        if slots is None:
            return self._loaded_indices, summed
        # Loaded rows the batch did not reference get a zero gradient.
        agg = np.zeros(
            (self._loaded_indices.size, self.embedding_dim), dtype=summed.dtype
        )
        agg[slots] = summed
        return self._loaded_indices, agg

    def _apply(self, pending: Tuple[np.ndarray, np.ndarray], lr: float) -> None:
        """Host tables are updated by the server, never by the worker."""
        raise RuntimeError(
            "HostBackedEmbeddingBag has no local parameters; route "
            "gradients through the parameter server"
        )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {}

    def pop_row_gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return and clear ``(unique_indices, aggregated row grads)``."""
        unique_indices, agg = self._pop_pending()
        return unique_indices, agg

    def compute_updated_rows(self, lr: float) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh row values after this batch's SGD step.

        ``loaded_rows - lr * grads`` — what the embedding cache stores
        so later prefetches can be synchronized (§V-B).  Requires
        un-popped gradients.
        """
        if self._pending is None or self._loaded_rows is None:
            raise RuntimeError("compute_updated_rows needs captured gradients")
        unique_indices, agg = self._pending
        return unique_indices, self._loaded_rows - lr * agg

    @property
    def nbytes(self) -> int:
        """Worker-side footprint: only the currently loaded rows."""
        return 0 if self._loaded_rows is None else self._loaded_rows.nbytes
