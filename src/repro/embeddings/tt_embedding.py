"""TT-Rec-style Tensor-Train embedding bag (the compression baseline).

This implements the TT table as TT-Rec [20] does, *without* the paper's
Eff-TT optimizations:

* forward: one full TT contraction chain **per index occurrence** — no
  dedup, no prefix reuse buffer;
* backward: per-occurrence slice gradients scattered into materialized
  full-size core-gradient arrays (the extra data copy the paper calls
  out in §III-B);
* update: a separate dense optimizer pass over whole cores.

The class is deliberately kept algorithmically naive so that the
Eff-TT/TT-Rec comparisons in Figures 14, 17 and 18 measure exactly the
paper's claimed optimizations on a shared substrate.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import (
    ZONE_OPTIMIZER,
    ZONE_TT_BACKWARD,
    ZONE_TT_RECONSTRUCT,
    get_backend,
    get_plan_cache,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import SpecParamValue
from repro.embeddings.tt_core import TTCores, TTSpec, tt_chain_forward
from repro.embeddings.tt_indices import row_index_to_tt
from repro.utils.factorize import suggest_tt_shapes
from repro.utils.rng import RngLike

__all__ = [
    "TTBagBase",
    "TTEmbeddingBag",
    "tt_chain_forward",
    "tt_chain_backward",
]


def tt_chain_backward(
    cores: List[np.ndarray],
    tt_idx: Sequence[np.ndarray],
    left_partials: List[np.ndarray],
    row_grads: np.ndarray,
    col_shape: Sequence[int],
    zone: str = ZONE_TT_BACKWARD,
) -> List[np.ndarray]:
    """Per-occurrence slice gradients for every core.

    Parameters
    ----------
    cores:
        Core arrays in storage layout ``(m_k, R_{k-1}, n_k, R_k)``.
    tt_idx:
        Per-core indices, each ``(L,)``.
    left_partials:
        Cached prefix products from :func:`tt_chain_forward`.
    row_grads:
        ``(L, embedding_dim)`` gradients of the looked-up rows.
    col_shape:
        Column factors ``[n_1, ..., n_d]``.
    zone:
        Kernel zone the contraction is attributed to.

    Returns
    -------
    List of ``d`` arrays, each ``(L, R_{k-1}, n_k, R_k)`` — the gradient
    of every gathered TT slice (Equation 6 evaluated for all cores).
    """
    bk = get_backend()
    get_plan_cache().chain_plan("chain_backward", tuple(c.shape for c in cores))
    d = len(cores)
    batch = row_grads.shape[0]
    with bk.zone(zone):
        # Right (suffix) partials: right[k] = product of slices k+1..d-1,
        # shape (L, R_k, prod_{l>k} n_l).  One batched GEMM per core.
        # Seeded at the row-gradient dtype so a float32-configured table
        # never silently upcasts the whole backward chain to float64.
        # One shared (L, 1, 1) identity seed: it is read-only on both the
        # suffix chain and the k==0 left partial, so a single allocation
        # serves every use.
        ones_seed = bk.ones((batch, 1, 1), dtype=row_grads.dtype)
        right = ones_seed
        rights: List[Optional[np.ndarray]] = [None] * d
        rights[d - 1] = right
        for k in range(d - 1, 0, -1):
            slice_k = bk.gather_rows(cores[k], tt_idx[k])  # (L, R_{k-1}, n_k, R_k)
            r_prev, n_k, r_next = slice_k.shape[1:]
            # (L, r*b, s) @ (L, s, c) -> (L, r*b, c) -> (L, r, b*c)
            right = bk.matmul(
                slice_k.reshape(batch, r_prev * n_k, r_next), right
            ).reshape(batch, r_prev, n_k * right.shape[2])
            rights[k - 1] = right

        slice_grads: List[np.ndarray] = []
        prefix_cols = 1
        for k in range(d):
            n_k = col_shape[k]
            suffix_cols = row_grads.shape[1] // (prefix_cols * n_k)
            grad_tensor = row_grads.reshape(batch, prefix_cols, n_k * suffix_cols)
            left = left_partials[k - 1] if k > 0 else ones_seed
            right_k = rights[k]
            assert right_k is not None
            # dSlice[l, r, b, s] = sum_{a, c} left[l,a,r] G[l,a,b,c] right[l,s,c]
            # as two batched GEMMs (Equation 6 in cuBLAS form):
            #   tmp = left^T G     : (L, r, a) @ (L, a, b*c) -> (L, r, b*c)
            #   grad = tmp right^T : (L, r*b, c) @ (L, c, s) -> (L, r*b, s)
            r_prev = left.shape[2]
            r_next = right_k.shape[1]
            tmp = bk.matmul(left.transpose(0, 2, 1), grad_tensor)
            grad_k = bk.matmul(
                tmp.reshape(batch, r_prev * n_k, suffix_cols),
                right_k.transpose(0, 2, 1),
            ).reshape(batch, r_prev, n_k, r_next)
            slice_grads.append(grad_k)
            prefix_cols *= n_k
    return slice_grads


class TTBagBase(EmbeddingBagBase):
    """What the TT-Rec and Eff-TT bags share: the cores and their bookkeeping.

    Factorization choice and validation, core storage, serving-time
    reconstruction and the footprint figures are the same for both;
    the lookup/backward/update kernels — the paper's subject — are not,
    and stay in the two subclasses.
    """

    config_knobs = ("tt_rank",)

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        tt_rank: Union[int, Sequence[int]] = 64,
        num_cores: int = 3,
        row_shape: Optional[Sequence[int]] = None,
        col_shape: Optional[Sequence[int]] = None,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        self.spec = self._resolve_spec(
            num_embeddings, embedding_dim, tt_rank, num_cores,
            row_shape, col_shape,
        )
        self.tt = TTCores.random_init(self.spec, seed=seed, dtype=self.dtype)

    @staticmethod
    def _resolve_spec(
        num_embeddings: int,
        embedding_dim: int,
        tt_rank: Union[int, Sequence[int]],
        num_cores: int,
        row_shape: Optional[Sequence[int]],
        col_shape: Optional[Sequence[int]],
    ) -> TTSpec:
        """The (rank-clamped) spec the constructor keywords describe."""
        if row_shape is None or col_shape is None:
            auto_rows, auto_cols, _ = suggest_tt_shapes(
                num_embeddings, embedding_dim, num_cores
            )
            row_shape = row_shape if row_shape is not None else auto_rows
            col_shape = col_shape if col_shape is not None else auto_cols
        if math.prod(row_shape) < num_embeddings:
            raise ValueError(
                f"prod(row_shape)={math.prod(row_shape)} cannot address "
                f"{num_embeddings} rows"
            )
        if math.prod(col_shape) != embedding_dim:
            raise ValueError(
                f"prod(col_shape)={math.prod(col_shape)} != embedding_dim="
                f"{embedding_dim}"
            )
        return TTSpec.create(row_shape, col_shape, tt_rank)

    @staticmethod
    def estimate_bytes(
        num_embeddings: int,
        embedding_dim: int,
        dtype_bytes: int = DEFAULT_DTYPE.itemsize,
        tt_rank: Union[int, Sequence[int]] = 64,
        num_cores: int = 3,
        row_shape: Optional[Sequence[int]] = None,
        col_shape: Optional[Sequence[int]] = None,
    ) -> int:
        """``memory_bytes()`` of the bag these constructor keywords build."""
        spec = TTBagBase._resolve_spec(
            num_embeddings, embedding_dim, tt_rank, num_cores,
            row_shape, col_shape,
        )
        return spec.num_params * int(dtype_bytes)

    def _reconstruct(self, idx: np.ndarray) -> np.ndarray:
        # The shell range-checked idx; the spec carries the strides.
        return tt_chain_forward(
            self.tt.cores, self.tt.spec.tt_indices(idx), ZONE_TT_RECONSTRUCT
        )[0]

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live TT cores keyed ``core{k}`` (callers copy to persist)."""
        return {f"core{k}": core for k, core in enumerate(self.tt.cores)}

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {
            "row_shape": tuple(self.spec.row_shape),
            "col_shape": tuple(self.spec.col_shape),
            "tt_rank": tuple(self.spec.ranks),
        }

    def nbytes_as(self, dtype: DTypeLike = np.float32) -> int:
        """Footprint if cores were stored at ``dtype`` (no optimizer state)."""
        return self.spec.num_params * np.dtype(dtype).itemsize

    def compression_ratio(self) -> float:
        """Dense ``num_embeddings x dim`` footprint over TT footprint."""
        dense = self.num_embeddings * self.embedding_dim
        return dense / self.spec.num_params

    def materialize(self) -> np.ndarray:
        """Reconstruct the logical table (tests / small tables only)."""
        return self.tt.reconstruct()[: self.num_embeddings]


class TTEmbeddingBag(TTBagBase):
    """Tensor-Train embedding bag with naive (TT-Rec-style) kernels.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Logical table shape; rows are padded up to a balanced TT
        factorization (padding rows are never addressed).
    tt_rank:
        Scalar TT rank or explicit internal rank list.
    num_cores:
        Number of TT cores ``d`` (paper uses 3).
    row_shape, col_shape:
        Optional explicit factorizations overriding the automatic ones.
    seed:
        RNG for core initialization.
    dtype:
        Core / gradient floating dtype (default
        :data:`~repro.backend.DEFAULT_DTYPE`).  The whole
        forward/backward/update path stays at this dtype — no silent
        upcasts.
    """

    kind = "tt"
    grad_zone = ZONE_TT_BACKWARD

    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        tt_idx = row_index_to_tt(idx, self.spec.row_shape)
        rows, left_partials = tt_chain_forward(self.tt.cores, tt_idx)
        return rows, {"tt_idx": tt_idx, "left_partials": left_partials}

    def _accumulate(
        self, saved: Dict[str, Any], row_grads: np.ndarray
    ) -> List[np.ndarray]:
        slice_grads = tt_chain_backward(
            self.tt.cores,
            saved["tt_idx"],
            saved["left_partials"],
            row_grads,
            self.spec.col_shape,
        )
        # TT-Rec path: materialize full-size core gradients (the extra
        # allocation + scatter the paper's fused update avoids).
        bk = get_backend()
        with bk.zone(ZONE_TT_BACKWARD):
            core_grads = [
                bk.zeros(core.shape, dtype=core.dtype) for core in self.tt.cores
            ]
            for k, grads_k in enumerate(slice_grads):
                bk.scatter_add_rows(core_grads[k], saved["tt_idx"][k], grads_k)
        return core_grads

    def _apply(self, core_grads: List[np.ndarray], lr: float) -> None:
        # Separate dense optimizer pass over whole cores.
        bk = get_backend()
        with bk.zone(ZONE_OPTIMIZER):
            for core, grad in zip(self.tt.cores, core_grads):
                bk.axpy(core, grad, -lr)
