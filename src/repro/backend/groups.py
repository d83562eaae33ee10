"""Row groups: the index bookkeeping behind the segment ops, and the one row sum.

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

:meth:`RowGroups.sum_rows` is the only sum of rows by group in the
training and serving paths: the in-advance gradient aggregation of
§III-B (Eff-TT occurrences, prefixes and core-0 slices, the parameter
server's host tables), sum pooling of multi-hot bags
(:func:`~repro.embeddings.base.segment_sum`) and the duplicate ids of
every sparse update (:func:`scatter_add_rows`, the reference backend's
op).  Apart from that one sum the module is integer bookkeeping, and
like the reuse planner it sits outside the backend routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "RowGroups",
    "group_rows",
    "invert_permutation",
    "run_heads",
    "scatter_add_rows",
    "SUM_DEPTH",
]

#: :meth:`RowGroups.sum_rows` adds groups of at most this many rows in
#: depth-wise rounds and sums each longer group with one reduction.
SUM_DEPTH = 8


@dataclass(frozen=True)
class RowGroups:
    """Rows of an index list grouped by id.

    Attributes
    ----------
    order:
        The ``L`` rows in group order: position ``i`` of the groups is row
        ``order[i]`` of the list.  From :func:`group_rows` it is the
        stable sort permutation (``indices[order]`` non-decreasing, ties
        in row order).
    ids:
        The ``G`` group ids, one per group; from :func:`group_rows` the
        distinct ids, ascending.
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
        group ``j``'s rows in the order ``order`` lists them (list order,
        for a :func:`group_rows` record), one addition at a time from the
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
        flat = np.ascontiguousarray(values).reshape(values.shape[0], width)
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


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Where each item of ``range(n)`` lies in the permutation ``perm``."""
    slots = np.empty(perm.size, dtype=np.int64)
    slots[perm] = np.arange(perm.size, dtype=np.int64)
    return slots


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the items of a non-decreasing array that start a run."""
    heads = np.empty(keys.size, dtype=bool)
    heads[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


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
    first = run_heads(sorted_idx)
    return RowGroups(
        order=order,
        ids=sorted_idx[first],
        starts=np.flatnonzero(first),
        presorted=presorted,
    )


def scatter_add_rows(
    target: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    scale: float = 1.0,
) -> None:
    """``target[indices] += scale * values`` with duplicate accumulation.

    ``np.add.at`` is the semantically correct primitive for sparse
    embedding updates but is an unbuffered per-element loop.  Here the
    rows of each duplicated id are summed first (:func:`group_rows` +
    :meth:`RowGroups.sum_rows`) and applied with one indexed add — the
    NumPy analog of the sorted, atomics-free scatter a tuned GPU kernel
    performs.

    Parameters
    ----------
    target:
        Array updated in place; rows are indexed along axis 0.
    indices:
        1-D integer row ids, duplicates allowed.
    values:
        ``(len(indices), *target.shape[1:])`` addends.
    scale:
        Multiplier applied *after* the duplicate sum, so ``scale=-lr``
        performs an SGD update without a scaled copy of every addend —
        the data movement the paper's fused TT-core update eliminates
        (§III-B).

    The same sum as ``np.add.at(target, indices, scale * values)`` up
    to rounding order; deterministic.  Not bit for bit: each duplicate
    group is summed left to right on its own and then added to its row,
    where ``add.at`` adds the addends to the row one at a time, and
    ``scale`` multiplies the group's sum rather than each addend.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        return
    # Strictly ascending ids (the aggregated update's) have no duplicates
    # and need no sort to find that out.
    if not (idx[1:] > idx[:-1]).all():
        groups = group_rows(idx)
        if groups.num_groups < idx.size:
            idx, values = groups.ids, groups.sum_rows(values)
    if scale == 1.0:
        target[idx] += values
    else:
        target[idx] += scale * values
