"""Batch-level intermediate-result reuse planning (paper §III-A, Algorithm 1).

The paper's CUDA implementation prepares pointer lists so a batched
GEMM computes the partial product of the first TT cores exactly once
per *unique* TT-index prefix in the batch, storing results in a Reuse
Buffer.  The NumPy equivalent of pointer preparation is this module's
:func:`build_reuse_plan`.  It sorts the batch's row ids once and derives
everything else from that sort:

* the unique row indices and the occurrence->unique scatter map
  (sample- and batch-level full-row reuse);
* the unique prefixes (the Reuse Buffer contents).  Unique rows sorted
  by id are already prefix-major, so the prefixes are the runs of
  ``row // m_d`` — a ``diff``, not a second sort;
* the layout every GEMM of the chain reads its operand in.  The
  level-``k`` GEMM of the buffer groups the prefixes by digit ``k``, so
  the plan stores that level's operand in the prefixes' stable digit-``k``
  order (a sort of ``P`` small digits); the last core groups the unique
  rows by the last digit, so the rows are laid out in that order (a sort
  of ``U`` digits).  The kernels get
  :meth:`~repro.backend.groups.RowGroups.laid_out` records and read and
  write in place, and the permutations between levels are composed here,
  as integers: the only float gather they leave is the prefix->row
  expansion in front of the last core;
* for the backward, the two row-group sums as
  :class:`~repro.backend.groups.RowGroups` records that
  :meth:`~repro.backend.groups.RowGroups.sum_rows` runs: unique rows
  into their prefix, prefixes into their core-0 slice.  Each record's
  ``order`` reads its operand where the layout put it.

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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.groups import RowGroups, group_rows, invert_permutation, run_heads

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
        prefix among the sorted unique prefixes, shape ``(U,)``.
    prefix_starts:
        The first unique row of every prefix, shape ``(P,)``: the rows
        of prefix ``p`` are ``prefix_starts[p]`` onwards, contiguous.
    prefix_tt_indices:
        Per-core TT indices of the sorted unique prefixes, ``d-1``
        arrays of shape ``(P,)`` (the gather lists for the batched
        partial GEMM — the ``Ptr_a`` / ``Ptr_b`` analog of Algorithm 1).
    occurrence_groups:
        The ``L`` occurrences grouped by unique row (``ids`` is
        ``unique_rows``): drives the in-advance gradient aggregation.
    prefix_orders:
        Per GEMM level ``k = 1 .. d-2`` of the Reuse Buffer, the
        prefixes stably sorted by digit ``k``: the order that level's
        operand and product are stored in.
    prefix_groups:
        The digit-``k`` groups over those orders (``laid_out``).
    row_order:
        The unique rows stably sorted by the last digit: the order the
        last core's operand, the rows it produces and their gradients
        are stored in.
    row_groups:
        The last-digit groups over ``row_order`` (``laid_out``).
    """

    unique_rows: np.ndarray
    row_inverse: np.ndarray
    tt_indices: Tuple[np.ndarray, ...]
    prefix_ids: np.ndarray
    prefix_starts: np.ndarray
    prefix_tt_indices: Tuple[np.ndarray, ...]
    occurrence_groups: RowGroups
    prefix_orders: Tuple[np.ndarray, ...]
    prefix_groups: Tuple[RowGroups, ...]
    row_order: np.ndarray
    row_groups: RowGroups

    @property
    def num_occurrences(self) -> int:
        return int(self.row_inverse.size)

    @property
    def num_unique_rows(self) -> int:
        return int(self.unique_rows.size)

    @property
    def num_unique_prefixes(self) -> int:
        """Number of distinct prefixes ``P`` — the partial-GEMM evaluations required."""
        return int(self.prefix_starts.size)

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

    # -- the layout, composed from the sorts above ------------------------
    @cached_property
    def prefix_layouts(self) -> Tuple[np.ndarray, ...]:
        """Per buffer level ``k``, the order its product ``L_k`` is read in.

        ``L_k`` feeds GEMM level ``k + 1``, so it is read in that level's
        order; the top level feeds the row expansion where it lies.
        """
        orders = self.prefix_orders
        if not orders:
            return (np.arange(self.num_unique_prefixes, dtype=np.int64),)
        return (*orders, orders[-1])

    @cached_property
    def layout_slots(self) -> Tuple[np.ndarray, ...]:
        """Per buffer level, where each sorted prefix lies in its layout."""
        return tuple(invert_permutation(layout) for layout in self.prefix_layouts)

    @cached_property
    def first_slices(self) -> np.ndarray:
        """Core-0 slice of every prefix, in the order level 1 reads ``L_0``."""
        return self.prefix_tt_indices[0][self.prefix_layouts[0]]

    @cached_property
    def relayouts(self) -> Tuple[Optional[np.ndarray], ...]:
        """Per GEMM level ``k``, the rows of ``L_{k-1}`` (stored as level
        ``k-1`` produced it) that make up its operand; ``None`` where it
        is stored in that order already."""
        return tuple(
            None if k == 1 else self.layout_slots[k - 2][order]
            for k, order in enumerate(self.prefix_orders, start=1)
        )

    @cached_property
    def relayouts_back(self) -> Tuple[Optional[np.ndarray], ...]:
        """Per GEMM level ``k``, the rows of ``dL_k`` (in the order the
        level above read ``L_k``) in the order level ``k`` produced it."""
        top = len(self.prefix_orders)
        return tuple(
            None if k == top else self.layout_slots[k][order]
            for k, order in enumerate(self.prefix_orders, start=1)
        )

    @cached_property
    def row_slots(self) -> np.ndarray:
        """Where each sorted unique row lies in ``row_order``."""
        return invert_permutation(self.row_order)

    @cached_property
    def occurrence_slots(self) -> np.ndarray:
        """Each occurrence's row in ``row_order``: the output gather."""
        return self.row_slots[self.row_inverse]

    @cached_property
    def expand_index(self) -> np.ndarray:
        """The top buffer row (prefix) of every unique row, in ``row_order``."""
        return self.layout_slots[-1][self.prefix_ids[self.row_order]]

    @cached_property
    def prefix_sum(self) -> RowGroups:
        """Rows (stored in ``row_order``) grouped by prefix, in top layout.

        Group ``j`` is the ``j``-th prefix of the top layout; its rows are
        read where ``row_order`` put them, ascending by row, so the sum
        lands in the order the buffer's top level is stored in.
        """
        top = self.prefix_layouts[-1]
        counts = np.diff(np.append(self.prefix_starts, self.num_unique_rows))[top]
        starts = np.cumsum(counts) - counts
        rows = np.arange(self.num_unique_rows) + np.repeat(
            self.prefix_starts[top] - starts, counts
        )
        return RowGroups(order=self.row_slots[rows], ids=top, starts=starts)

    @cached_property
    def first_core_sum(self) -> RowGroups:
        """``dL_0`` (in the order level 1 read ``L_0``) grouped by core-0 slice.

        Sorted prefixes are core-0-major: a slice's prefixes are a run,
        read where ``layout_slots[0]`` put them.
        """
        digits = self.prefix_tt_indices[0]
        starts = np.flatnonzero(run_heads(digits))
        return RowGroups(order=self.layout_slots[0], ids=digits[starts], starts=starts)

    @property
    def slice_ids(self) -> Tuple[np.ndarray, ...]:
        """Per core, the distinct slices the batch addresses, ascending —
        what the aggregated backward's slice gradients are aligned with."""
        return (
            self.first_core_sum.ids,
            *(groups.ids for groups in self.prefix_groups),
            self.row_groups.ids,
        )


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
        for ``d = 3``), the only depth the Eff-TT kernels run.

    Notes
    -----
    The sort of the occurrences plays the role of Algorithm 1's
    parallel duplicate detection: it identifies, per distinct row and
    per distinct prefix, a single representative computation.  The
    digit sorts that lay the levels out run over ``P`` prefixes and
    ``U`` rows, never over the ``L`` occurrences again.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    row_shape = tuple(int(m) for m in row_shape)
    d = len(row_shape)
    if prefix_depth is None:
        prefix_depth = d - 1
    if not 1 <= prefix_depth < d:
        raise ValueError(
            f"prefix_depth must be in [1, {d - 1}], got {prefix_depth}"
        )
    num_rows = math.prod(row_shape)
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ValueError(
            f"indices must lie in [0, {num_rows}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )

    occurrences = group_rows(idx, bound=num_rows)
    unique_rows = occurrences.ids
    # Mixed-radix digits (Equation 3), last first; what is left of the
    # row once the digits after the prefix are off is its prefix key.
    digits = []
    rest = unique_rows
    for k in range(d - 1, 0, -1):
        rest, digit = np.divmod(rest, row_shape[k])
        digits.append(digit)
        if k == prefix_depth:
            prefix_keys = rest
    digits.append(rest)
    digits.reverse()

    # Sorted rows are prefix-major: a prefix is a run of equal keys.
    heads = run_heads(prefix_keys)
    prefix_starts = np.flatnonzero(heads)
    prefix_tt = tuple(digits[k][prefix_starts] for k in range(prefix_depth))
    level_groups = [
        group_rows(prefix_tt[k], bound=row_shape[k]) for k in range(1, prefix_depth)
    ]
    last_digit = group_rows(digits[-1], bound=row_shape[-1])

    return ReusePlan(
        unique_rows=unique_rows,
        row_inverse=occurrences.inverse(),
        tt_indices=tuple(digits),
        prefix_ids=np.cumsum(heads) - 1,
        prefix_starts=prefix_starts,
        prefix_tt_indices=prefix_tt,
        occurrence_groups=occurrences,
        prefix_orders=tuple(groups.order for groups in level_groups),
        prefix_groups=tuple(groups.laid_out() for groups in level_groups),
        row_order=last_digit.order,
        row_groups=last_digit.laid_out(),
    )
