"""Row groups: the sorted index bookkeeping behind the segment-GEMM ops.

``gather_matmul`` and ``matmul_segment_sum`` (see
:class:`~repro.backend.protocol.ArrayBackend`) issue one GEMM per
*distinct* id of an index list instead of one per row.  What they need
to know about the list — which rows share an id — is a sort, and the
sort is the caller's to do once: :func:`group_rows` is the NumPy analog
of Algorithm 1's pointer preparation (paper §III-A).  The
:class:`~repro.embeddings.reuse_buffer.ReusePlan` sorts each Eff-TT
index list once per step, stores the operands in that sorted order and
carries :meth:`RowGroups.laid_out` records, so the forward fill, the
backward chain and the gradient aggregation read every operand where it
lies.

The same sort serves the parameter server's host tables (paper §V):
:meth:`RowGroups.sum_rows` adds each group's gradient rows, the
in-advance aggregation of §III-B, without a sorted copy of the rows.
Apart from that one sum the module is integer bookkeeping, and like
the reuse planner it sits outside the backend routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = ["RowGroups", "group_rows", "SUM_DEPTH"]

#: :meth:`RowGroups.sum_rows` adds groups of at most this many rows in
#: depth-wise rounds and sums each longer group with one reduction.
SUM_DEPTH = 8


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
        instead of scattering it back).  :meth:`laid_out` records are
        presorted by construction.
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

    def laid_out(self) -> "RowGroups":
        """The same groups over the list's rows once stored in ``order``.

        A caller that keeps its operand sorted (row ``i`` of it is row
        ``order[i]`` of the list) hands a kernel this record, and the
        kernel reads the operand and writes its result in place.
        """
        return RowGroups(
            np.arange(self.order.size, dtype=np.int64), self.ids, self.starts,
            presorted=True,
        )

    def inverse(self) -> np.ndarray:
        """Group position of every row: ``ids[inverse()] == indices``."""
        sizes = np.diff(self.boundaries)
        inverse = np.empty(self.order.size, dtype=np.int64)
        inverse[self.order] = np.repeat(
            np.arange(self.ids.size, dtype=np.int64), sizes
        )
        return inverse

    def sum_rows(self, values: np.ndarray) -> np.ndarray:
        """Each group's rows of ``values`` added left to right, ``(G, ...)``.

        Row ``j`` of the result is ``values[r0] + values[r1] + ...`` over
        group ``j``'s rows in list order, one addition at a time from the
        left: bit for bit what a Python loop over the rows gives.  Rows
        are read through ``order``; no sorted copy of ``values`` is made.
        Groups of up to :data:`SUM_DEPTH` rows are added in depth-wise
        rounds (round ``r`` adds the ``r``-th row of every group still
        open), and each longer group is one ``np.add.reduce`` over its
        rows, which sums a 2-D block row after row.
        """
        width = int(np.prod(values.shape[1:], dtype=np.int64))
        # ``take`` copies a strided source whole on every call (a host
        # bag's gradient is a view into the interaction's stack), so
        # lay it out once.
        flat = np.ascontiguousarray(values).reshape(self.order.size, width)
        sizes = np.diff(self.boundaries)
        out = flat.take(self.order[self.starts], axis=0)
        # numpy sums a single column pairwise, not left to right: rows of
        # one element take the rounds whatever their group's length.
        depth = SUM_DEPTH if width > 1 else int(sizes.max(initial=1))
        rounds = np.minimum(sizes, depth)
        rounds[sizes > depth] = 1
        # Longest groups first: the groups open in round r are a prefix.
        longest = np.argsort(-rounds, kind="stable")
        closed = np.cumsum(np.bincount(rounds, minlength=depth))  # by round
        still_open = sizes.size - closed[1:depth]
        starts = self.starts[longest]
        for step, n in enumerate(still_open.tolist(), start=1):
            if n == 0:
                break
            out[longest[:n]] += flat.take(self.order[starts[:n] + step], axis=0)
        for j in np.flatnonzero(sizes > depth).tolist():
            rows = self.order[self.boundaries[j]:self.boundaries[j + 1]]
            out[j] = np.add.reduce(flat.take(rows, axis=0), axis=0)
        return out.reshape((self.ids.size,) + values.shape[1:])


def _stable_order(idx: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(idx, kind="stable")`` for ids in ``[0, bound)``.

    numpy's stable sort is a radix sort on 16-bit keys and a merge sort
    on wider ones.  The order is the same either way, so narrow ids
    (every TT digit, most tables' rows) take one radix pass and ids the
    caller bounds below 2**32 two — low half, then high half (LSD
    radix).
    """
    if bound <= 1 << 16:
        return np.argsort(idx.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        low = np.argsort(idx.astype(np.uint16), kind="stable")
        high = (idx[low] >> 16).astype(np.uint16)
        return low[np.argsort(high, kind="stable")]
    return np.argsort(idx, kind="stable")


def group_rows(indices: np.ndarray, bound: Optional[int] = None) -> RowGroups:
    """Group a 1-D id list with one stable sort (zero rows allowed).

    A list that is already non-decreasing is not sorted again: its
    stable order is the identity.  A caller that knows every id lies in
    ``[0, bound)`` says so, and the list is sorted without scanning it
    first (``presorted`` is then left false).
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    presorted = False
    if bound is None:
        presorted = bool((idx[1:] >= idx[:-1]).all())
        narrow = not presorted and idx.min() >= 0 and idx.max() < 1 << 16
        # Unbounded wide ids keep numpy's stable sort, which is adaptive:
        # on 2,048 ids in three sorted runs it takes 13 us, two radix
        # passes 53 (random ids: 120 against 35).
        bound = 1 << 16 if narrow else 1 << 63
    if presorted:
        order, sorted_idx = np.arange(idx.size, dtype=np.int64), idx
    else:
        order = _stable_order(idx, bound)
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
