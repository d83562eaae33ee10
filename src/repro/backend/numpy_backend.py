# reprolint: disable-file=direct-numpy-in-kernel-zone
"""Reference backend: thin, bit-exact delegation to numpy.

This module is the numeric ground truth of the repository.  Every
method forwards to the *same* numpy call the pre-backend code used —
``np.matmul``, fancy-index gather,
:func:`repro.utils.scatter.scatter_add_rows` — so routing a kernel
through :class:`NumpyBackend` is bitwise-identical to the direct call it
replaced.  The file-level reprolint pragma above opts this one
module out of REP005 (``direct-numpy-in-kernel-zone``): the reference
backend is the single place direct numpy contraction calls are allowed.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, cast

import numpy as np

from ..utils.scatter import scatter_add_rows as _scatter_add_rows
from .groups import RowGroups
from .protocol import DTypeLike, Shape

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """The reference :class:`~repro.backend.protocol.ArrayBackend`."""

    name = "numpy"

    # -- allocation ----------------------------------------------------
    def zeros(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return np.ones(shape, dtype=dtype)

    def empty(self, shape: Shape, dtype: DTypeLike) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def full(self, shape: Shape, fill_value: float, dtype: DTypeLike) -> np.ndarray:
        return np.full(shape, fill_value, dtype=dtype)

    def asarray(self, a: Any, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.asarray(a, dtype=dtype)

    # -- contraction ---------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast(np.ndarray, np.matmul(a, b))

    def gather_matmul(
        self, a: np.ndarray, table: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        rows, m, k = a.shape
        n = table.shape[2]
        # Sorted by slice id, the rows of one group are one contiguous
        # (rows_j * m, k) matrix: a single GEMM against table[id].
        a_sorted = np.ascontiguousarray(a[groups.order]).reshape(rows * m, k)
        out_sorted = np.empty((rows * m, n), dtype=np.result_type(a, table))
        bounds = (groups.boundaries * m).tolist()
        for j, slice_id in enumerate(groups.ids.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            np.matmul(a_sorted[lo:hi], table[slice_id], out=out_sorted[lo:hi])
        out = np.empty((rows, m, n), dtype=out_sorted.dtype)
        out[groups.order] = out_sorted.reshape(rows, m, n)
        return out

    def matmul_segment_sum(
        self, a: np.ndarray, b: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        m, n = a.shape[1], b.shape[1]
        out = np.empty((groups.num_groups, m, n), dtype=np.result_type(a, b))
        a_sorted, b_sorted = a[groups.order], b[groups.order]
        bounds = groups.boundaries.tolist()
        for j in range(groups.num_groups):
            lo, hi = bounds[j], bounds[j + 1]
            # Contract over (row, k) at once: the group's rows laid side
            # by side along the contraction axis, so the per-row product
            # and the sum over duplicates are the same GEMM.
            out[j] = np.tensordot(
                a_sorted[lo:hi], b_sorted[lo:hi], axes=([0, 2], [0, 2])
            )
        return out

    # -- sparse movement -----------------------------------------------
    def gather_rows(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return cast(np.ndarray, table[indices])

    def scatter_add_rows(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        scale: float = 1.0,
    ) -> None:
        _scatter_add_rows(target, indices, values, scale=scale)

    # -- elementwise ---------------------------------------------------
    def exp(self, a: np.ndarray) -> np.ndarray:
        return cast(np.ndarray, np.exp(a))

    def maximum(self, a: Any, b: Any) -> np.ndarray:
        return cast(np.ndarray, np.maximum(a, b))

    def where(self, cond: np.ndarray, a: Any, b: Any) -> np.ndarray:
        return cast(np.ndarray, np.where(cond, a, b))

    def axpy(self, target: np.ndarray, values: np.ndarray, scale: float) -> None:
        if scale == 1.0:
            target += values
        elif scale == -1.0:
            target -= values
        else:
            target += scale * values

    # -- instrumentation seam ------------------------------------------
    @contextlib.contextmanager
    def zone(self, name: str) -> Iterator[None]:
        yield
