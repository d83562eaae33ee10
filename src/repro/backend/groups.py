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

from dataclasses import dataclass

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
    """

    order: np.ndarray
    ids: np.ndarray
    starts: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.order.size)

    @property
    def num_groups(self) -> int:
        return int(self.ids.size)

    @property
    def boundaries(self) -> np.ndarray:
        """``starts`` with the closing ``L`` appended, shape ``(G + 1,)``."""
        return np.append(self.starts, self.order.size)

    def inverse(self) -> np.ndarray:
        """Group position of every row: ``ids[inverse()] == indices``."""
        sizes = np.diff(self.boundaries)
        inverse = np.empty(self.order.size, dtype=np.int64)
        inverse[self.order] = np.repeat(
            np.arange(self.ids.size, dtype=np.int64), sizes
        )
        return inverse


def group_rows(indices: np.ndarray) -> RowGroups:
    """Group a 1-D id list with one stable sort (zero rows allowed)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    # A group starts wherever the sorted id changes; the prepended
    # sentinel makes row 0 a start and keeps the empty list empty.
    starts = np.flatnonzero(np.diff(sorted_idx, prepend=sorted_idx[:1] - 1))
    return RowGroups(order=order, ids=sorted_idx[starts], starts=starts)
