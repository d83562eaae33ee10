"""Row groups: the sorted index bookkeeping behind the segment-GEMM ops.

``gather_matmul`` and ``matmul_segment_sum`` (see
:class:`~repro.backend.protocol.ArrayBackend`) issue one GEMM per
*distinct* id of an index list instead of one per row.  What they need
to know about the list — which rows share an id — is a sort, and the
sort is the caller's to do once: :func:`group_rows` is the NumPy analog
of Algorithm 1's pointer preparation (paper §III-A), and its result is
carried on the :class:`~repro.embeddings.reuse_buffer.ReusePlan` so the
forward fill, the backward chain and the gradient aggregation of one
step all read the same record.

Integer bookkeeping only — no float math — so, like the reuse planner,
this module sits outside the backend routing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = ["RowGroups", "group_rows"]


@dataclass(frozen=True)
class RowGroups:
    """Rows of an index list grouped by id.

    Attributes
    ----------
    order:
        Stable sort permutation of the ``L`` rows: ``indices[order]`` is
        non-decreasing, ties in row order.
    ids:
        The ``G`` distinct ids, ascending.
    starts:
        Position in ``order`` where each group begins, shape ``(G,)``;
        group ``j`` is ``order[starts[j]:starts[j + 1]]`` (the last one
        runs to ``L``).
    presorted:
        The index list was already non-decreasing, so ``order`` is the
        identity and a kernel may read its operands in place instead of
        gathering them into sorted order (and write its result in place
        instead of scattering it back).  Always true for the leading TT
        digit of sorted unique rows.
    """

    order: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    presorted: bool = False

    @property
    def num_rows(self) -> int:
        return int(self.order.size)

    @property
    def num_groups(self) -> int:
        return int(self.ids.size)

    @cached_property
    def boundaries(self) -> np.ndarray:
        """``starts`` with the closing ``L`` appended, shape ``(G + 1,)``."""
        return np.append(self.starts, self.order.size)

    def over_distinct(self) -> "RowGroups":
        """The same grouping over a table holding only the distinct ids.

        Row ``j`` of that table is ``table[ids[j]]`` of the full one
        (``gather_rows(table, ids)``), so a caller can re-lay out the
        slices a batch touches without copying the ones it does not.
        """
        return replace(self, ids=np.arange(self.ids.size, dtype=np.int64))

    def inverse(self) -> np.ndarray:
        """Group position of every row: ``ids[inverse()] == indices``."""
        sizes = np.diff(self.boundaries)
        inverse = np.empty(self.order.size, dtype=np.int64)
        inverse[self.order] = np.repeat(
            np.arange(self.ids.size, dtype=np.int64), sizes
        )
        return inverse


def group_rows(indices: np.ndarray) -> RowGroups:
    """Group a 1-D id list with one stable sort (zero rows allowed).

    A list that is already non-decreasing is not sorted again: its
    stable order is the identity.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    presorted = bool((idx[1:] >= idx[:-1]).all())
    if presorted:
        order, sorted_idx = np.arange(idx.size, dtype=np.int64), idx
    else:
        # numpy's stable sort is a radix sort on 16-bit keys and a merge
        # sort on wider ones; the order is the same, so narrow ids
        # (every TT digit, most tables' rows) take the fast one.
        narrow = idx.min() >= 0 and idx.max() < 1 << 16
        order = np.argsort(idx.astype(np.uint16) if narrow else idx, kind="stable")
        sorted_idx = idx[order]
    # A group starts at row 0 and wherever the sorted id changes.
    first = np.empty(idx.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=first[1:])
    return RowGroups(
        order=order,
        ids=sorted_idx[first],
        starts=np.flatnonzero(first),
        presorted=presorted,
    )
