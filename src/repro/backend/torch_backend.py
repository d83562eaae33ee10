"""Optional PyTorch execution backend.

Importing this module never requires torch; construction does.  When
torch is absent, :class:`TorchBackend` raises
:class:`~repro.backend.protocol.BackendUnavailableError` with an
actionable message — the CLI surfaces it verbatim for
``--backend torch``.

Numeric contract: *tolerance-based*, not bitwise.  Torch dispatches
contractions through its own BLAS/kernels, so results agree with the
reference backend to float rounding (the equivalence suite asserts
``allclose`` at dtype-appropriate tolerances when torch is installed,
and skips otherwise).  Arrays cross the boundary via ``torch.from_numpy``
(zero-copy for contiguous inputs) and ``.numpy()`` on the way back; all
execution is CPU — device placement is a future PR's concern.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional

import numpy as np

from .groups import RowGroups
from .protocol import BackendUnavailableError, DTypeLike, Shape

__all__ = ["TorchBackend", "torch_available"]


def _import_torch() -> Any:
    try:
        import torch
    except ImportError as exc:
        raise BackendUnavailableError(
            "the 'torch' backend requires PyTorch, which is not installed in "
            "this environment; install torch or use --backend numpy / "
            "--backend instrumented"
        ) from exc
    return torch


def torch_available() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


class TorchBackend:
    """CPU PyTorch :class:`~repro.backend.protocol.ArrayBackend`."""

    name = "torch"

    def __init__(self) -> None:
        self._torch = _import_torch()

    # -- boundary conversion -------------------------------------------
    def _to_torch(self, a: np.ndarray) -> Any:
        return self._torch.from_numpy(np.ascontiguousarray(a))

    @staticmethod
    def _to_numpy(t: Any) -> np.ndarray:
        return t.numpy()

    def _torch_dtype(self, dtype: DTypeLike) -> Any:
        mapping = {
            np.dtype(np.float32): self._torch.float32,
            np.dtype(np.float64): self._torch.float64,
            np.dtype(np.int32): self._torch.int32,
            np.dtype(np.int64): self._torch.int64,
        }
        key = np.dtype(dtype)
        if key not in mapping:
            raise ValueError(f"TorchBackend has no mapping for dtype {key}")
        return mapping[key]

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
        return self._to_numpy(self._torch.matmul(self._to_torch(a), self._to_torch(b)))

    def gather_matmul(
        self, a: np.ndarray, table: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        torch = self._torch
        order = torch.from_numpy(groups.order)
        a_sorted = self._to_torch(a).index_select(0, order)
        table_t = self._to_torch(table)
        out_sorted = torch.empty(
            (*a_sorted.shape[:2], table_t.shape[2]),
            dtype=torch.result_type(a_sorted, table_t),
        )
        bounds = groups.boundaries.tolist()
        for j, slice_id in enumerate(groups.ids.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            # (rows_j, M, K) @ (K, N): torch folds the rows into M.
            out_sorted[lo:hi] = torch.matmul(a_sorted[lo:hi], table_t[slice_id])
        out = torch.empty_like(out_sorted)
        out.index_copy_(0, order, out_sorted)
        return self._to_numpy(out)

    def matmul_segment_sum(
        self, a: np.ndarray, b: np.ndarray, groups: RowGroups
    ) -> np.ndarray:
        torch = self._torch
        order = torch.from_numpy(groups.order)
        a_sorted = self._to_torch(a).index_select(0, order)
        b_sorted = self._to_torch(b).index_select(0, order)
        out = torch.empty(
            (groups.num_groups, a_sorted.shape[1], b_sorted.shape[1]),
            dtype=torch.result_type(a_sorted, b_sorted),
        )
        bounds = groups.boundaries.tolist()
        for j in range(groups.num_groups):
            lo, hi = bounds[j], bounds[j + 1]
            out[j] = torch.tensordot(
                a_sorted[lo:hi], b_sorted[lo:hi], dims=([0, 2], [0, 2])
            )
        return self._to_numpy(out)

    # -- sparse movement -----------------------------------------------
    def gather_rows(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        idx = self._torch.from_numpy(np.ascontiguousarray(indices, dtype=np.int64))
        return self._to_numpy(self._to_torch(table).index_select(0, idx))

    def scatter_add_rows(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        scale: float = 1.0,
    ) -> None:
        t = self._to_torch(target)
        idx = self._torch.from_numpy(np.ascontiguousarray(indices, dtype=np.int64))
        v = self._to_torch(values)
        if scale != 1.0:
            v = v * scale
        # from_numpy shares memory with a contiguous target, so the
        # index_add_ lands in the caller's array in place.
        t.index_add_(0, idx, v)
        if t.data_ptr() != self._torch.from_numpy(target).data_ptr():
            np.copyto(target, self._to_numpy(t))

    # -- elementwise ---------------------------------------------------
    def exp(self, a: np.ndarray) -> np.ndarray:
        return self._to_numpy(self._torch.exp(self._to_torch(a)))

    def maximum(self, a: Any, b: Any) -> np.ndarray:
        return np.maximum(a, b)

    def multiply(self, a: Any, b: Any) -> np.ndarray:
        return np.multiply(a, b)

    def where(self, cond: np.ndarray, a: Any, b: Any) -> np.ndarray:
        return np.where(cond, a, b)

    def axpy(self, target: np.ndarray, values: np.ndarray, scale: float) -> None:
        target += scale * values

    # -- instrumentation seam ------------------------------------------
    @contextlib.contextmanager
    def zone(self, name: str) -> Iterator[None]:
        yield
