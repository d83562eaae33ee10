"""Uncompressed embedding bag — the PyTorch ``nn.EmbeddingBag`` stand-in.

This is the representation the DLRM and FAE baselines use, and the
memory-footprint reference for Table III's compression ratios.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import ZONE_OPTIMIZER, get_backend
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.nn.optim import SparseSGD
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["DenseEmbeddingBag"]

#: Tables of at most this many rows take their SGD step as one dense
#: gradient, ``one_hot(indices) @ row_grads``: one GEMM instead of a
#: sort, a segment sum and a scatter.  Per table at B = 2048, dim 64,
#: float32 (DESIGN.md §8): 3 rows 333 -> 47 us, 32 rows 404 -> 186 us,
#: 128 rows 510 -> 612 us; a first probe on another host already lost
#: at 64 rows (343 -> 412 us).
ONE_HOT_MAX_ROWS = 32


class DenseEmbeddingBag(EmbeddingBagBase):
    """Dense ``(num_embeddings, embedding_dim)`` table with sum pooling.

    Initialization follows the reference DLRM: uniform in
    ``(-1/sqrt(num_embeddings), 1/sqrt(num_embeddings))``.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Table shape.
    seed:
        RNG for initialization.
    dtype:
        Storage dtype (default :data:`~repro.backend.DEFAULT_DTYPE`, the
        fp32 the paper trains and Table III accounts at).
    """

    kind = "dense"

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        rng = ensure_rng(seed)
        bound = 1.0 / np.sqrt(num_embeddings)
        self.weight = rng.uniform(
            -bound, bound, size=(num_embeddings, embedding_dim)
        ).astype(self.dtype)

    # -- codec: plain numpy on host arrays, never through the backend ----
    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.weight[idx], idx

    def _cast_grad(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=self.dtype)

    def _occurrence_grads(
        self, grad_output: np.ndarray, bag_ids: Optional[np.ndarray]
    ) -> np.ndarray:
        return grad_output if bag_ids is None else grad_output[bag_ids]

    def _apply(self, pending: Tuple[np.ndarray, np.ndarray], lr: float) -> None:
        indices, row_grads = pending
        if self.num_embeddings > ONE_HOT_MAX_ROWS:
            SparseSGD(lr).step_rows(self.weight, indices, row_grads)
            return
        bk = get_backend()
        with bk.zone(ZONE_OPTIMIZER):
            one_hot = bk.zeros((self.num_embeddings, indices.size), dtype=self.dtype)
            one_hot[indices, np.arange(indices.size)] = 1
            bk.axpy(self.weight, bk.matmul(one_hot, row_grads), -lr)

    def pop_row_gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return and clear ``(indices, per-row gradients)``.

        Used by the parameter-server path (§V) where the *server*
        applies the update after the gradient queue delivers it, rather
        than the table itself.
        """
        indices, row_grads = self._pop_pending()
        return indices, row_grads

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight}

    @staticmethod
    def estimate_bytes(
        num_embeddings: int,
        embedding_dim: int,
        dtype_bytes: int = DEFAULT_DTYPE.itemsize,
    ) -> int:
        """``memory_bytes()`` of the bag these constructor keywords build."""
        return int(num_embeddings) * int(embedding_dim) * int(dtype_bytes)
