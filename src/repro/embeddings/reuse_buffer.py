"""Batch-level intermediate-result reuse planning (paper §III-A, Algorithm 1).

The paper's CUDA implementation prepares pointer lists so a batched
GEMM computes the partial product of the first TT cores exactly once
per *unique* TT-index prefix in the batch, storing results in a Reuse
Buffer.  The NumPy equivalent of pointer preparation is this module's
:func:`build_reuse_plan`: one stable sort per index list that yields,
for a batch of embedding indices,

* the unique row indices and the occurrence->unique scatter map
  (sample- and batch-level full-row reuse),
* the unique prefix keys among those rows and the row->prefix gather
  map (the Reuse Buffer contents), and
* for every one of those lists, the
  :class:`~repro.backend.groups.RowGroups` record of which entries
  share an id — what the segment-GEMM kernels and the in-advance
  gradient aggregation consume, so no list is sorted twice in a step.

The plan is consumed by :class:`~repro.embeddings.eff_tt_embedding.EffTTEmbeddingBag`
and reported by the locality statistics in :mod:`repro.reorder.stats`.

Backend note: this module is deliberately *outside* the
:mod:`repro.backend` routing.  It performs integer index bookkeeping
only — sorting, mixed-radix prefix decoding — with no float
contractions or row movement to instrument; the gathers and GEMMs the
plan drives execute in ``eff_tt_embedding`` under the ``efftt_*``
kernel zones, and the plan's FLOP consequences are costed there (and
cross-checked against :mod:`repro.embeddings.flops`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.backend.groups import RowGroups, group_rows
from repro.embeddings.tt_indices import prefix_keys, row_index_to_tt

__all__ = ["ReusePlan", "build_reuse_plan"]


@dataclass(frozen=True)
class ReusePlan:
    """Computation plan for one batch of TT-table lookups.

    Attributes
    ----------
    unique_rows:
        Sorted unique embedding row indices in the batch, shape ``(U,)``.
    row_inverse:
        For each of the ``L`` occurrences, the position of its row in
        ``unique_rows`` (scatter map), shape ``(L,)``.
    tt_indices:
        Per-core TT indices **of the unique rows**, ``d`` arrays of
        shape ``(U,)``.
    prefix_ids:
        For each unique row, the position of its (first ``d-1`` cores)
        prefix in the unique-prefix set, shape ``(U,)``.
    num_unique_prefixes:
        Number of distinct prefixes ``P`` — the number of partial-GEMM
        evaluations actually required.
    prefix_tt_indices:
        Per-core TT indices of the unique prefixes, ``d-1`` arrays of
        shape ``(P,)`` (the gather lists for the batched partial GEMM —
        the ``Ptr_a`` / ``Ptr_b`` analog of Algorithm 1).
    occurrence_groups:
        The ``L`` occurrences grouped by unique row (``ids`` is
        ``unique_rows``): drives the in-advance gradient aggregation.
    slice_groups:
        Per core, the ``U`` unique rows grouped by the TT slice they
        address (``group_rows(tt_indices[k])``).
    prefix_slice_groups:
        Per reuse-buffer core, the ``P`` unique prefixes grouped by TT
        slice (``group_rows(prefix_tt_indices[k])``).
    """

    unique_rows: np.ndarray
    row_inverse: np.ndarray
    tt_indices: Tuple[np.ndarray, ...]
    prefix_ids: np.ndarray
    num_unique_prefixes: int
    prefix_tt_indices: Tuple[np.ndarray, ...]
    occurrence_groups: RowGroups
    slice_groups: Tuple[RowGroups, ...]
    prefix_slice_groups: Tuple[RowGroups, ...]

    @property
    def num_occurrences(self) -> int:
        return int(self.row_inverse.size)

    @property
    def num_unique_rows(self) -> int:
        return int(self.unique_rows.size)

    @property
    def full_row_reuse_ratio(self) -> float:
        """Occurrences served per computed row (>= 1; higher is better)."""
        if self.num_unique_rows == 0:
            return 1.0
        return self.num_occurrences / self.num_unique_rows

    @property
    def prefix_reuse_ratio(self) -> float:
        """Unique rows served per partial-product GEMM (>= 1)."""
        if self.num_unique_prefixes == 0:
            return 1.0
        return self.num_unique_rows / self.num_unique_prefixes

    def gemm_count(self) -> int:
        """Partial GEMMs issued under this plan."""
        return self.num_unique_prefixes

    def naive_gemm_count(self) -> int:
        """Partial GEMMs a per-occurrence implementation would issue."""
        return self.num_occurrences


def build_reuse_plan(
    indices: np.ndarray,
    row_shape: Sequence[int],
    prefix_depth: int | None = None,
) -> ReusePlan:
    """Analyze a batch of row indices and plan reused TT computation.

    Parameters
    ----------
    indices:
        Flat int array of embedding row indices (all occurrences in the
        batch, duplicates expected — see paper Figure 4b).
    row_shape:
        TT row factors ``[m_1, ..., m_d]``.
    prefix_depth:
        How many leading cores the reuse buffer covers.  Defaults to
        ``d - 1`` (the paper reuses the product of the first two cores
        for ``d = 3``).

    Notes
    -----
    The sort inside :func:`~repro.backend.groups.group_rows` plays the
    role of Algorithm 1's parallel duplicate detection: both identify,
    per distinct prefix, a single representative computation.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    d = len(row_shape)
    if prefix_depth is None:
        prefix_depth = d - 1
    if not 1 <= prefix_depth < d:
        raise ValueError(
            f"prefix_depth must be in [1, {d - 1}], got {prefix_depth}"
        )

    occurrences = group_rows(idx)
    unique_rows = occurrences.ids
    tt_idx: List[np.ndarray] = row_index_to_tt(unique_rows, row_shape)

    prefixes = group_rows(prefix_keys(tt_idx, row_shape, depth=prefix_depth))

    # Recover the per-core indices of each unique prefix by decoding the
    # packed key (the keys were built with mixed-radix packing over the
    # first `prefix_depth` row factors).
    prefix_tt: List[np.ndarray] = []
    remaining = prefixes.ids
    for k in range(prefix_depth - 1, -1, -1):
        remaining, digit = np.divmod(remaining, row_shape[k])
        prefix_tt.append(digit)
    prefix_tt.reverse()

    return ReusePlan(
        unique_rows=unique_rows,
        row_inverse=occurrences.inverse(),
        tt_indices=tuple(tt_idx),
        prefix_ids=prefixes.inverse(),
        num_unique_prefixes=prefixes.num_groups,
        prefix_tt_indices=tuple(prefix_tt),
        occurrence_groups=occurrences,
        slice_groups=tuple(group_rows(part) for part in tt_idx),
        prefix_slice_groups=tuple(group_rows(part) for part in prefix_tt),
    )
