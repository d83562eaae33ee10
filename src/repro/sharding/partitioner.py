"""Deterministic row -> shard routing for sharded embedding tables.

Rows are routed with plain modular arithmetic: global row ``g`` lives on
shard ``g % N`` at local offset ``g // N``, so shard ``s`` of a table is
its strided view ``table[s::N]``.  Popular rows are spread by *id*, and
the data generators scatter popularity ranks through a random
permutation, so mod-N routing balances both capacity and access load
without a directory.  The parameter server reads it for accounting
only: which shard link a row crosses and which shard an apply touches.

The routing math runs under the ``shard_route`` kernel zone so the
instrumented backend can attribute its cost.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.backend import ZONE_SHARD_ROUTE, get_backend
from repro.utils.validation import check_positive

__all__ = ["ShardPartitioner"]


class ShardPartitioner:
    """Stateless mod-N router between global row ids and shard slots.

    Parameters
    ----------
    num_shards:
        Number of simulated devices the rows are split across.
    """

    def __init__(self, num_shards: int) -> None:
        check_positive(num_shards, "num_shards")
        self.num_shards = int(num_shards)

    # -- static layout -------------------------------------------------
    def shard_rows(self, num_rows: int, shard: int) -> int:
        """Rows owned by ``shard`` for a table of ``num_rows``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        if num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {num_rows}")
        # Globals owned by shard s are s, s+N, s+2N, ...
        return (num_rows - shard + self.num_shards - 1) // self.num_shards

    # -- routing -------------------------------------------------------
    def route(
        self, global_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Map global row ids to ``(shard_ids, local_indices)``."""
        idx = np.asarray(global_indices, dtype=np.int64)
        bk = get_backend()
        with bk.zone(ZONE_SHARD_ROUTE):
            shard_ids = idx % self.num_shards
            local = idx // self.num_shards
        return shard_ids, local

    def to_global(
        self, shard: int, local_indices: np.ndarray
    ) -> np.ndarray:
        """Inverse of :meth:`route` for one shard."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        local = np.asarray(local_indices, dtype=np.int64)
        return local * self.num_shards + shard

    def shard_masks(self, shard_ids: np.ndarray) -> List[np.ndarray]:
        """Boolean membership masks, one per shard, over a routed set."""
        bk = get_backend()
        with bk.zone(ZONE_SHARD_ROUTE):
            return [shard_ids == s for s in range(self.num_shards)]
