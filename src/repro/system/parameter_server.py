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
    ZONE_PS_APPLY,
    ZONE_PS_GATHER,
    get_backend,
)
from repro.embeddings.base import EmbeddingBagBase
from repro.utils.validation import check_1d_int_array

__all__ = ["HostBackedEmbeddingBag", "PrefetchedRows"]


@dataclass
class PrefetchedRows:
    """One table's prefetched embedding batch (prefetch-queue payload).

    ``rows[i]`` is the host-memory value of ``unique_indices[i]`` at
    gather time — possibly stale by the time the worker consumes it.
    """

    table_idx: int
    unique_indices: np.ndarray
    rows: np.ndarray


class HostBackedEmbeddingBag(EmbeddingBagBase):
    """Worker-side view of a host-resident table.

    The bag owns no parameters.  Before each forward pass the trainer
    calls :meth:`load_rows` with the (cache-synchronized) prefetched
    rows; backward aggregates per-unique-row gradients which the
    trainer ships through the gradient queue via
    :meth:`pop_row_gradients`.
    """

    kind = "host"
    grad_zone = ZONE_PS_APPLY

    def __init__(self, num_embeddings: int, embedding_dim: int) -> None:
        super().__init__(num_embeddings, embedding_dim)
        self._loaded_indices: Optional[np.ndarray] = None
        self._loaded_rows: Optional[np.ndarray] = None

    def load_rows(self, unique_indices: np.ndarray, rows: np.ndarray) -> None:
        """Install the embedding rows for the upcoming batch.

        ``unique_indices`` must be sorted and unique (the server's
        gather guarantees this).
        """
        idx = check_1d_int_array(
            unique_indices,
            "unique_indices",
            min_value=0,
            max_value=self.num_embeddings - 1,
        )
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (idx.size, self.embedding_dim):
            raise ValueError(
                f"rows shape {rows.shape} does not match "
                f"({idx.size}, {self.embedding_dim})"
            )
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("unique_indices must be strictly increasing")
        self._loaded_indices = idx
        self._loaded_rows = rows

    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._loaded_indices is None or self._loaded_rows is None:
            raise RuntimeError("forward called before load_rows")
        positions = np.searchsorted(self._loaded_indices, idx)
        if positions.size and (
            positions.max(initial=0) >= self._loaded_indices.size
            or np.any(self._loaded_indices[positions] != idx)
        ):
            raise KeyError("batch references rows that were not loaded")
        bk = get_backend()
        with bk.zone(ZONE_PS_GATHER):
            rows = bk.gather_rows(self._loaded_rows, positions)
        return rows, positions

    def _cast_grad(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=self.dtype)  # host side: no backend

    def _accumulate(
        self, positions: np.ndarray, row_grads: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self._loaded_indices is not None
        bk = get_backend()
        with bk.zone(ZONE_PS_APPLY):
            agg = bk.zeros(
                (self._loaded_indices.size, self.embedding_dim),
                dtype=row_grads.dtype,
            )
            bk.scatter_add_rows(agg, positions, row_grads)
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
