"""Parameter-server components for host-resident embedding tables (§V-A).

The server owns dense embedding tables in host memory and performs the
sparse operations on the CPU side: gathering rows for upcoming batches
(prefetch) and applying sparse gradients pulled from the gradient
queue.  Workers see host tables through
:class:`HostBackedEmbeddingBag`, a bag whose rows are *loaded* per
batch rather than owned — the mechanism that lets one DLRM instance mix
GPU-resident Eff-TT tables with host-resident dense tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import (
    ZONE_PS_APPLY,
    ZONE_PS_GATHER,
    get_backend,
)
from repro.embeddings.base import EmbeddingBagBase
from repro.nn.optim import SparseSGD
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_1d_int_array

__all__ = ["HostParameterServer", "HostBackedEmbeddingBag", "PrefetchedRows"]


@dataclass
class PrefetchedRows:
    """One table's prefetched embedding batch (prefetch-queue payload).

    ``rows[i]`` is the host-memory value of ``unique_indices[i]`` at
    gather time — possibly stale by the time the worker consumes it.
    """

    table_idx: int
    unique_indices: np.ndarray
    rows: np.ndarray


class HostParameterServer:
    """CPU-side server owning the host-resident dense tables.

    Parameters
    ----------
    table_rows:
        Cardinality of each host table.
    embedding_dim:
        Shared embedding width.
    lr:
        Learning rate for the server-side sparse update.
    seed:
        RNG for table initialization.
    """

    def __init__(
        self,
        table_rows: Sequence[int],
        embedding_dim: int,
        lr: float,
        seed: RngLike = 0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.embedding_dim = int(embedding_dim)
        self.lr = float(lr)
        rngs = spawn_rngs(seed, len(table_rows))
        self.tables: List[np.ndarray] = []
        for rows, rng in zip(table_rows, rngs):
            bound = 1.0 / np.sqrt(rows)
            self.tables.append(
                rng.uniform(-bound, bound, size=(rows, embedding_dim))
            )
        self._sgd = SparseSGD(lr)
        self.gather_count = 0
        self.update_count = 0

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def gather(self, table_idx: int, indices: np.ndarray) -> PrefetchedRows:
        """Gather the unique rows a batch needs (CPU-side lookup)."""
        table = self.tables[table_idx]
        idx = check_1d_int_array(
            indices, "indices", min_value=0, max_value=table.shape[0] - 1
        )
        unique = np.unique(idx)
        self.gather_count += 1
        bk = get_backend()
        with bk.zone(ZONE_PS_GATHER):
            rows = bk.gather_rows(table, unique)
        return PrefetchedRows(
            table_idx=table_idx,
            unique_indices=unique,
            rows=rows,
        )

    def apply_gradients(
        self, table_idx: int, unique_indices: np.ndarray, row_grads: np.ndarray
    ) -> None:
        """Apply one batch's aggregated sparse gradients (server update)."""
        self._sgd.step_rows(
            self.tables[table_idx], unique_indices, row_grads, zone=ZONE_PS_APPLY
        )
        self.update_count += 1

    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    # -- checkpoint support ----------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live state arrays for a trainer snapshot (keys ``table{t}``).

        The duck-typed surface the resilience checkpointing layer uses
        so any server implementation (host or sharded) can be captured
        and restored without the layer knowing its internal layout.
        """
        return {f"table{t}": table for t, table in enumerate(self.tables)}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output (validate, then write)."""
        staged = []
        for t, table in enumerate(self.tables):
            key = f"table{t}"
            if key not in arrays:
                raise KeyError(f"snapshot missing table array {key!r}")
            stored = np.asarray(arrays[key], dtype=np.float64)
            if stored.shape != table.shape:
                raise ValueError(
                    f"table {key!r} shape mismatch: "
                    f"{stored.shape} vs {table.shape}"
                )
            staged.append((table, stored))
        for table, stored in staged:
            table[...] = stored

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Persist the host-resident tables (and lr) to an .npz file.

        Complements :func:`repro.models.serialization.save_checkpoint`,
        which covers only worker-local parameters: a PS deployment
        checkpoints the server tables here and the worker model there.
        """
        arrays = {
            f"table{t}": table for t, table in enumerate(self.tables)
        }
        arrays["__lr__"] = np.array([self.lr])
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path, seed: RngLike = 0) -> "HostParameterServer":
        """Rebuild a server from :meth:`save` output."""
        with np.load(path) as archive:
            lr = float(archive["__lr__"][0])
            tables = []
            t = 0
            while f"table{t}" in archive:
                tables.append(archive[f"table{t}"].astype(np.float64))
                t += 1
        if not tables:
            raise ValueError("checkpoint contains no tables")
        server = cls(
            [tab.shape[0] for tab in tables],
            embedding_dim=tables[0].shape[1],
            lr=lr,
            seed=seed,
        )
        server.tables = tables
        return server


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
