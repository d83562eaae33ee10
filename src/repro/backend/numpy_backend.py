# reprolint: disable-file=direct-numpy-in-kernel-zone
"""Reference backend: thin, bit-exact delegation to numpy.

This module is the numeric ground truth of the repository.  Every
method forwards to the *same* numpy call the pre-backend code used —
``np.matmul``, fancy-index gather,
:func:`repro.backend.groups.scatter_add_rows` — so routing a kernel
through :class:`NumpyBackend` is bitwise-identical to the direct call it
replaced.  The file-level reprolint pragma above opts this one
module out of REP005 (``direct-numpy-in-kernel-zone``): the reference
backend is the single place direct numpy contraction calls are allowed.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, cast

import numpy as np

from .groups import RowGroups, invert_permutation
from .groups import scatter_add_rows as _scatter_add_rows
from .protocol import DTypeLike, Shape

__all__ = ["NumpyBackend"]


def _sorted_rows(x: np.ndarray, groups: RowGroups) -> np.ndarray:
    """``x[groups.order]`` as one C-contiguous array, in a single pass.

    Presorted groups read a contiguous ``x`` in place.  Otherwise the
    rows are written through the inverse permutation, which gathers and
    re-lays out a strided ``x`` (a transposed view) in the same pass.
    """
    if groups.presorted:
        return np.ascontiguousarray(x)
    out = np.empty(x.shape, dtype=x.dtype)
    out[invert_permutation(groups.order)] = x
    return out


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
        if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0] == 1:
            # A one-term contraction is an outer product, each element a
            # single product: the broadcast is bit-identical, and BLAS
            # runs this K = 1 GEMM at ~1 GFLOP/s (the gradient through a
            # one-output layer, float32 (2048, 1) @ (1, 256) on a 2-vCPU
            # host: 0.8 ms, the broadcast 0.3 ms).
            return cast(np.ndarray, np.multiply(a, b))
        return cast(np.ndarray, np.matmul(a, b))

    def gather_matmul(
        self, a: np.ndarray, table: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        rows, m, k = a.shape
        n = table.shape[2]
        dtype = np.result_type(a, table)
        # Sorted by slice id, the rows of one group are one contiguous
        # (rows_j * m, k) matrix: a single GEMM against table[id].
        a_sorted = _sorted_rows(a, groups).reshape(rows * m, k)
        out_sorted = np.empty((rows * m, n), dtype=dtype)
        bounds = (groups.boundaries * m).tolist()
        for j, slice_id in enumerate(groups.ids.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            np.matmul(a_sorted[lo:hi], table[slice_id], out=out_sorted[lo:hi])
        if groups.presorted:
            return out_sorted.reshape(rows, m, n)
        out = np.empty((rows, m, n), dtype=dtype)
        out[groups.order] = out_sorted.reshape(rows, m, n)
        return out

    def matmul_segment_sum(
        self, a: np.ndarray, b: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        rows, m, k = a.shape
        n = b.shape[1]
        out = np.empty((groups.num_groups, m, n), dtype=np.result_type(a, b))
        # Contraction-major: with each row stored (k, m) / (k, n), a
        # group's rows laid end to end are one (rows_j * k, .) matrix, so
        # the per-row products and the sum over duplicates are the same
        # 2-D GEMM.  An operand handed over as the transposed view of
        # such an array is read where it lies.
        a_k = _sorted_rows(a.transpose(0, 2, 1), groups).reshape(rows * k, m)
        b_k = _sorted_rows(b.transpose(0, 2, 1), groups).reshape(rows * k, n)
        bounds = (groups.boundaries * k).tolist()
        for j in range(groups.num_groups):
            lo, hi = bounds[j], bounds[j + 1]
            np.matmul(a_k[lo:hi].T, b_k[lo:hi], out=out[j])
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

    def multiply(self, a: Any, b: Any) -> np.ndarray:
        return cast(np.ndarray, np.multiply(a, b))

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
