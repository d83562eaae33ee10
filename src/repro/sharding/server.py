"""The parameter server for host-resident embedding tables (§V-A).

:class:`ShardedParameterServer` owns one table, at the model's dtype,
per server-resident embedding table and runs the sparse operations on
the CPU side: :meth:`~ShardedParameterServer.gather` pulls the unique
rows a batch needs into the prefetch queue, and
:meth:`~ShardedParameterServer.apply_gradients` applies one batch's
aggregated row gradients from the gradient queue.  The sequential and
pipelined PS trainers drive it.

``num_shards`` simulates row-sharding the tables across N devices.
Shard ``s`` owns global rows ``s, s+N, s+2N, ...`` (the mod-N
:class:`~repro.sharding.partitioner.ShardPartitioner`), which is the
strided view ``tables[t][s::N]``.  The rows stay in one array per
table, so training is bit-identical for every N by construction; N
changes only the accounting the tests pin:

* **Exactly-once accounting** — each ``apply_gradients`` call is one
  logical update (``update_count``); ``shard_apply_counts[s]`` counts
  the calls that sent shard ``s`` at least one row.  The resilience
  ledger's replay reconciles against ``update_count``.
* **Explicit wire accounting** — every pull (gather) and push
  (gradient) is metered per shard link in raw vs on-wire bytes, at the
  per-row costs :mod:`repro.sharding.compression` defines.
* **Checkpoint layout** — :meth:`~ShardedParameterServer.state_arrays`
  names each shard's rows ``table{t}/shard{s}``, so an N-shard snapshot
  restores into an N-shard server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend import DEFAULT_DTYPE, ZONE_PS_APPLY, ZONE_PS_GATHER, get_backend
from repro.backend.groups import group_rows
from repro.backend.protocol import DTypeLike
from repro.nn.optim import SparseSGD
from repro.sharding.compression import (
    ROW_ID_BYTES,
    LinkCompressionConfig,
    build_pull_quantizer,
    build_push_compressor,
    exact_row_bytes,
    int8_row_bytes,
)
from repro.sharding.partitioner import ShardPartitioner
from repro.system.parameter_server import PrefetchedRows
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_1d_int_array

__all__ = ["ShardedParameterServer", "LinkStats"]


@dataclass
class LinkStats:
    """Per-shard-link byte counters (pull = gather, push = gradients)."""

    num_shards: int
    pull_raw: np.ndarray = field(init=False)
    pull_wire: np.ndarray = field(init=False)
    push_raw: np.ndarray = field(init=False)
    push_wire: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("pull_raw", "pull_wire", "push_raw", "push_wire"):
            setattr(self, name, np.zeros(self.num_shards, dtype=np.int64))

    def charge(
        self, direction: str, raw: np.ndarray, wire: np.ndarray
    ) -> None:
        """Add per-shard ``raw`` / on-``wire`` bytes to ``"pull"`` or ``"push"``."""
        getattr(self, f"{direction}_raw")[...] += raw
        getattr(self, f"{direction}_wire")[...] += wire

    @property
    def total_raw(self) -> int:
        return int(self.pull_raw.sum() + self.push_raw.sum())

    @property
    def total_wire(self) -> int:
        return int(self.pull_wire.sum() + self.push_wire.sum())

    @property
    def compression_ratio(self) -> float:
        """raw / wire (1.0 when nothing crossed a link yet)."""
        wire = self.total_wire
        return self.total_raw / wire if wire else 1.0

    def summary(self) -> Dict[str, float]:
        return {
            "pull_raw_bytes": int(self.pull_raw.sum()),
            "pull_wire_bytes": int(self.pull_wire.sum()),
            "push_raw_bytes": int(self.push_raw.sum()),
            "push_wire_bytes": int(self.push_wire.sum()),
            "compression_ratio": self.compression_ratio,
        }


class ShardedParameterServer:
    """Parameter server whose tables are row-sharded across N devices.

    Parameters
    ----------
    table_rows:
        Cardinality of each server-resident table.
    embedding_dim:
        Shared embedding width.
    lr:
        Learning rate for the server-side sparse update.
    num_shards:
        Simulated device count; it changes the accounting, never a
        table's bits.
    seed:
        RNG for table initialization: table ``t`` draws
        ``uniform(±1/√rows)`` from the ``t``-th spawned stream.
    compression:
        Optional :class:`LinkCompressionConfig`; ``None`` (or mode
        ``"none"``) keeps both link directions exact.
    dtype:
        Table dtype: the dtype of the model it serves
        (``DLRMConfig.dtype``).  Rows are drawn in float64 and cast once,
        so a seed gives the same initial values at every dtype.
    """

    def __init__(
        self,
        table_rows: Sequence[int],
        embedding_dim: int,
        lr: float,
        num_shards: int = 1,
        seed: RngLike = 0,
        compression: Optional[LinkCompressionConfig] = None,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.embedding_dim = int(embedding_dim)
        self.lr = float(lr)
        self.dtype = np.dtype(dtype)
        self.partitioner = ShardPartitioner(num_shards)
        self.num_shards = self.partitioner.num_shards
        self.compression = compression or LinkCompressionConfig()

        rows_per_table = [int(r) for r in table_rows]
        rngs = spawn_rngs(seed, len(rows_per_table))
        self.tables: List[np.ndarray] = []
        for rows, rng in zip(rows_per_table, rngs):
            bound = 1.0 / np.sqrt(rows)
            self.tables.append(
                rng.uniform(
                    -bound, bound, size=(rows, self.embedding_dim)
                ).astype(self.dtype)
            )

        self._sgd = SparseSGD(lr)
        self._push = build_push_compressor(
            self.compression, rows_per_table, self.embedding_dim, self.dtype
        )
        self._pull = build_pull_quantizer(self.compression, self.embedding_dim)
        # Link bytes per row: an id plus its exact values, and what a
        # pull puts on the wire (int8 values when quantized).
        itemsize = self.dtype.itemsize
        self._row_bytes = exact_row_bytes(self.embedding_dim, itemsize) + ROW_ID_BYTES
        pulled = int8_row_bytes if self._pull is not None else exact_row_bytes
        self._pull_row_bytes = pulled(self.embedding_dim, itemsize) + ROW_ID_BYTES

        self.gather_count = 0
        self.update_count = 0
        self.shard_apply_counts = np.zeros(self.num_shards, dtype=np.int64)
        self.link_stats = LinkStats(self.num_shards)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def _checked_ids(
        self, table_idx: int, ids: np.ndarray, name: str
    ) -> np.ndarray:
        rows = self.tables[table_idx].shape[0]
        return check_1d_int_array(ids, name, min_value=0, max_value=rows - 1)

    def _rows_per_shard(self, ids: np.ndarray) -> np.ndarray:
        shard_ids, _ = self.partitioner.route(ids)
        return np.bincount(shard_ids, minlength=self.num_shards)

    def gather(self, table_idx: int, indices: np.ndarray) -> PrefetchedRows:
        """Gather a batch's unique rows, in ascending id order.

        The ids are grouped with one stable sort, bounded by the table's
        row count (a radix sort), and the :class:`RowGroups` travel with
        the rows: the worker's lookup and gradient sum reuse them.
        """
        idx = self._checked_ids(table_idx, indices, "indices")
        groups = group_rows(idx, bound=self.tables[table_idx].shape[0])
        unique = groups.ids
        self.gather_count += 1
        bk = get_backend()
        with bk.zone(ZONE_PS_GATHER):
            rows = bk.gather_rows(self.tables[table_idx], unique)
        if self._pull is not None:
            rows = self._pull.apply(rows)
        counts = self._rows_per_shard(unique)
        self.link_stats.charge(
            "pull", counts * self._row_bytes, counts * self._pull_row_bytes
        )
        return PrefetchedRows(
            table_idx=table_idx,
            unique_indices=unique,
            rows=rows,
            groups=groups,
        )

    def apply_gradients(
        self, table_idx: int, unique_indices: np.ndarray, row_grads: np.ndarray
    ) -> None:
        """Apply one batch's aggregated row gradients (one logical update).

        The ids and the gradient shape are checked before anything is
        written or counted.  With top-k compression enabled, only the
        top rows by residual-corrected norm cross the links this step;
        everything else is banked in the error-feedback residual and
        sent later.
        """
        uidx = self._checked_ids(table_idx, unique_indices, "unique_indices")
        grads = np.asarray(row_grads, dtype=self.dtype)
        if grads.shape != (uidx.size, self.embedding_dim):
            raise ValueError(
                f"row_grads shape {grads.shape} does not match "
                f"({uidx.size}, {self.embedding_dim})"
            )
        offered = self._rows_per_shard(uidx)
        sent = offered
        if self._push is not None:
            pushed = self._push.compress(table_idx, uidx, grads)
            uidx, grads = pushed.unique_indices, pushed.row_grads
            sent = self._rows_per_shard(uidx)
        self._sgd.step_rows(
            self.tables[table_idx], uidx, grads, zone=ZONE_PS_APPLY
        )
        self.link_stats.charge(
            "push", offered * self._row_bytes, sent * self._row_bytes
        )
        self.shard_apply_counts += sent > 0
        self.update_count += 1

    def nbytes(self) -> int:
        return sum(table.nbytes for table in self.tables)

    # -- checkpoint support --------------------------------------------
    def _shard_views(self) -> Dict[str, np.ndarray]:
        n = self.num_shards
        return {
            f"table{t}/shard{s}": table[s::n]
            for t, table in enumerate(self.tables)
            for s in range(n)
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live state arrays for a trainer snapshot.

        Each shard's rows appear as ``table{t}/shard{s}`` (the view
        ``tables[t][s::N]``) so an N-shard snapshot restores into an
        N-shard server; error-feedback residuals ride along so recovery
        is bitwise even with compression on.
        """
        arrays = self._shard_views()
        if self._push is not None:
            for key, residual in sorted(self._push.state_arrays().items()):
                arrays[key] = residual
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output (validate all, then write)."""
        staged = []
        for key, view in self._shard_views().items():
            if key not in arrays:
                raise KeyError(f"snapshot missing shard array {key!r}")
            stored = np.asarray(arrays[key], dtype=self.dtype)
            if stored.shape != view.shape:
                raise ValueError(
                    f"shard {key!r} shape mismatch: "
                    f"{stored.shape} vs {view.shape}"
                )
            staged.append((view, stored))
        if self._push is not None:
            self._push.load_state_arrays(arrays)  # validates, then writes
        for view, stored in staged:
            view[...] = stored
