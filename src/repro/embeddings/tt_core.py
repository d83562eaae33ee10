"""Tensor-Train core container, decomposition, and reconstruction.

Implements the embedding-table TT representation of paper §II-B: the
``(M, N)`` table with ``M = m_1 * ... * m_d`` and ``N = n_1 * ... * n_d``
becomes ``d`` cores ``C^(k)`` of shape ``(R_{k-1}, m_k * n_k, R_k)``
with ``R_0 = R_d = 1`` (Equation 2, Figure 3).

Storage layout: cores are kept as ``(m_k, R_{k-1}, n_k, R_k)`` so that
``core[i_k]`` yields the contiguous TT slice for sub-index ``i_k`` — the
gather that dominates the lookup hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import (
    ZONE_TT_FORWARD,
    ZONE_TT_RECONSTRUCT,
    get_backend,
    get_plan_cache,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.tt_indices import row_index_to_tt, row_strides
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["TTSpec", "TTCores", "tt_chain_forward", "tt_svd", "clamp_ranks"]


def clamp_ranks(
    row_shape: Sequence[int],
    col_shape: Sequence[int],
    ranks: Union[int, Sequence[int]],
) -> List[int]:
    """Resolve user-provided TT ranks to a valid boundary-rank list.

    Accepts a scalar rank (applied to every internal boundary, the
    paper's convention: "the setting of TT rank is 128") or an explicit
    list of ``d-1`` internal ranks.  Each internal rank ``R_k`` is
    clamped to the maximal useful value
    ``min(prod_{l<=k} m_l n_l, prod_{l>k} m_l n_l)``.

    Returns the full ``d+1`` boundary list ``[1, R_1, ..., R_{d-1}, 1]``.
    """
    d = len(row_shape)
    if len(col_shape) != d:
        raise ValueError(
            f"row_shape and col_shape must have equal length, got {d} and "
            f"{len(col_shape)}"
        )
    if d < 2:
        raise ValueError(f"TT decomposition needs >= 2 cores, got {d}")
    if isinstance(ranks, (int, np.integer)):
        internal = [int(ranks)] * (d - 1)
    else:
        internal = [int(r) for r in ranks]
        if len(internal) == d + 1:
            if internal[0] != 1 or internal[-1] != 1:
                raise ValueError(
                    f"boundary ranks must start and end with 1, got {internal}"
                )
            internal = internal[1:-1]
        if len(internal) != d - 1:
            raise ValueError(
                f"expected {d - 1} internal ranks, got {len(internal)}"
            )
    if any(r < 1 for r in internal):
        raise ValueError(f"ranks must be >= 1, got {internal}")
    dims = [m * n for m, n in zip(row_shape, col_shape)]
    clamped = []
    for k, rank in enumerate(internal, start=1):
        left = math.prod(dims[:k])
        right = math.prod(dims[k:])
        clamped.append(min(rank, left, right))
    return [1, *clamped, 1]


@dataclass(frozen=True)
class TTSpec:
    """Shape specification of a TT-compressed embedding table.

    Attributes
    ----------
    row_shape:
        Row factors ``[m_1, ..., m_d]``; ``prod`` is the padded row
        count (may exceed the logical ``num_embeddings``).
    col_shape:
        Column factors ``[n_1, ..., n_d]``; ``prod`` is the embedding
        dimension.
    ranks:
        Boundary ranks ``[1, R_1, ..., R_{d-1}, 1]``.
    row_strides:
        Mixed-radix strides of ``row_shape`` (derived, not an argument):
        ``row_strides[k] = prod(row_shape[k+1:])``.
    """

    row_shape: Tuple[int, ...]
    col_shape: Tuple[int, ...]
    ranks: Tuple[int, ...]
    row_strides: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_shape", tuple(int(m) for m in self.row_shape))
        object.__setattr__(self, "col_shape", tuple(int(n) for n in self.col_shape))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        d = len(self.row_shape)
        if len(self.col_shape) != d:
            raise ValueError("row_shape and col_shape lengths differ")
        if len(self.ranks) != d + 1:
            raise ValueError(
                f"ranks must have length d+1={d + 1}, got {len(self.ranks)}"
            )
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ValueError("boundary ranks R_0 and R_d must be 1")
        if any(v < 1 for v in (*self.row_shape, *self.col_shape, *self.ranks)):
            raise ValueError("all shape entries and ranks must be >= 1")
        object.__setattr__(
            self, "row_strides", tuple(int(s) for s in row_strides(self.row_shape))
        )

    @classmethod
    def create(
        cls,
        row_shape: Sequence[int],
        col_shape: Sequence[int],
        rank: Union[int, Sequence[int]],
    ) -> "TTSpec":
        """Build a spec, clamping ranks to their maximal useful values."""
        return cls(
            tuple(row_shape),
            tuple(col_shape),
            tuple(clamp_ranks(row_shape, col_shape, rank)),
        )

    def tt_indices(self, idx: np.ndarray) -> List[np.ndarray]:
        """Per-core TT indices (Equation 3) of range-checked int64 rows.

        :func:`~repro.embeddings.tt_indices.row_index_to_tt` without the
        range check and the stride recomputation: for callers whose
        shell validated ``idx`` against the logical row count already.
        """
        return [
            (idx // stride) % m_k
            for stride, m_k in zip(self.row_strides, self.row_shape)
        ]

    @property
    def num_cores(self) -> int:
        return len(self.row_shape)

    @property
    def padded_rows(self) -> int:
        return math.prod(self.row_shape)

    @property
    def embedding_dim(self) -> int:
        return math.prod(self.col_shape)

    def core_shape(self, k: int) -> Tuple[int, int, int, int]:
        """Storage shape of core ``k``: ``(m_k, R_{k-1}, n_k, R_k)``."""
        return (
            self.row_shape[k],
            self.ranks[k],
            self.col_shape[k],
            self.ranks[k + 1],
        )

    @property
    def num_params(self) -> int:
        """Total scalars across all cores."""
        return sum(math.prod(self.core_shape(k)) for k in range(self.num_cores))

    def compression_ratio(self, dtype_bytes: int = 4) -> float:
        """Dense footprint / TT footprint (same dtype on both sides)."""
        dense = self.padded_rows * self.embedding_dim
        return dense / self.num_params if self.num_params else float("inf")

    def nbytes(self, dtype_bytes: int = DEFAULT_DTYPE.itemsize) -> int:
        return self.num_params * dtype_bytes


class TTCores:
    """Concrete TT cores with initialization, reconstruction, and access.

    Parameters
    ----------
    spec:
        Shape specification.
    cores:
        Optional pre-built core arrays (storage layout
        ``(m_k, R_{k-1}, n_k, R_k)``); validated against ``spec``.
    dtype:
        Floating dtype the cores are stored at (default
        :data:`~repro.backend.DEFAULT_DTYPE`).
    """

    def __init__(
        self,
        spec: TTSpec,
        cores: Optional[List[np.ndarray]] = None,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        if cores is None:
            cores = [
                np.zeros(spec.core_shape(k), dtype=self.dtype)
                for k in range(spec.num_cores)
            ]
        if len(cores) != spec.num_cores:
            raise ValueError(
                f"expected {spec.num_cores} cores, got {len(cores)}"
            )
        for k, core in enumerate(cores):
            if core.shape != spec.core_shape(k):
                raise ValueError(
                    f"core {k} has shape {core.shape}, expected "
                    f"{spec.core_shape(k)}"
                )
        self.cores = [np.ascontiguousarray(c, dtype=self.dtype) for c in cores]

    # -- constructors --------------------------------------------------
    @classmethod
    def random_init(
        cls,
        spec: TTSpec,
        target_std: Optional[float] = None,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> "TTCores":
        """Gaussian cores scaled so reconstructed entries match ``target_std``.

        With i.i.d. ``N(0, s^2)`` core entries, a reconstructed table
        entry is a sum of ``prod_k R_k`` independent products of ``d``
        factors, so its variance is ``(prod R_k) * s^(2d)``.  Solving
        for ``s`` gives entries statistically equivalent to the dense
        initialization (TT-Rec's sampled-Gaussian-core initialization).

        ``target_std`` defaults to ``1 / (sqrt(3) * sqrt(padded_rows))``,
        the standard deviation of DLRM's uniform row init.
        """
        rng = ensure_rng(seed)
        if target_std is None:
            target_std = 1.0 / (np.sqrt(3.0) * np.sqrt(spec.padded_rows))
        if target_std <= 0:
            raise ValueError(f"target_std must be > 0, got {target_std}")
        rank_product = math.prod(spec.ranks[1:-1]) if spec.num_cores > 1 else 1
        core_std = (target_std**2 / rank_product) ** (1.0 / (2 * spec.num_cores))
        cores = [
            rng.normal(0.0, core_std, size=spec.core_shape(k))
            for k in range(spec.num_cores)
        ]
        return cls(spec, cores, dtype=dtype)

    @classmethod
    def from_dense(
        cls,
        table: np.ndarray,
        row_shape: Sequence[int],
        col_shape: Sequence[int],
        rank: Union[int, Sequence[int]],
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> "TTCores":
        """TT-SVD decomposition of a dense table (see :func:`tt_svd`)."""
        cores, spec = tt_svd(table, row_shape, col_shape, rank)
        return cls(spec, cores, dtype=dtype)

    # -- accessors -------------------------------------------------------
    @property
    def num_params(self) -> int:
        return sum(c.size for c in self.cores)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.cores)

    def flat_core(self, k: int) -> np.ndarray:
        """Core ``k`` in the canonical ``(R_{k-1}, m_k*n_k, R_k)`` layout."""
        m_k, r_prev, n_k, r_next = self.spec.core_shape(k)
        # A cold-path exporter from storage layout to the canonical TT
        # layout: the transposed copy is the point, not a kernel's cost.
        return self.cores[k].transpose(1, 0, 2, 3).reshape(r_prev, m_k * n_k, r_next)

    # -- reconstruction ----------------------------------------------------
    def reconstruct_rows(self, indices: np.ndarray) -> np.ndarray:
        """Row reconstruction by sequential TT contraction.

        The *naive* (non-reused) lookup: one chain per index occurrence,
        through the same batched-GEMM kernel as the TT-Rec forward
        (:func:`tt_chain_forward`).  Each row is computed from its own
        slices only, so its bits do not depend on the rows it is
        batched with.
        """
        idx = np.asarray(indices, dtype=np.int64)
        tt_idx = row_index_to_tt(idx, self.spec.row_shape)
        return tt_chain_forward(self.cores, tt_idx, ZONE_TT_RECONSTRUCT)[0]

    def reconstruct(self) -> np.ndarray:
        """Materialize the full ``(padded_rows, embedding_dim)`` table.

        Only for tests and small tables — the whole point of TT is to
        avoid this allocation.
        """
        all_rows = np.arange(self.spec.padded_rows, dtype=np.int64)
        return self.reconstruct_rows(all_rows)

    def copy(self) -> "TTCores":
        return TTCores(
            self.spec, [c.copy() for c in self.cores], dtype=self.dtype
        )


def tt_chain_forward(
    cores: Sequence[np.ndarray],
    tt_idx: Sequence[np.ndarray],
    zone: str = ZONE_TT_FORWARD,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Sequential TT contraction for a list of per-core indices.

    The one chain kernel: the TT-Rec forward, the Eff-TT fallback and
    serving's :meth:`TTCores.reconstruct_rows` (which drops the
    partials) all run it.

    Returns ``(rows, left_partials)`` where ``rows`` is
    ``(L, embedding_dim)`` and ``left_partials[k]`` is the accumulated
    product of cores ``0..k`` gathered at the given indices, shape
    ``(L, prod_{l<=k} n_l, R_{k+1})`` — cached for the backward chain.

    ``zone`` names the kernel zone the contraction is attributed to
    (callers such as the Eff-TT bag re-tag the shared chain kernel).
    The batched-GEMM schedule is fetched from the process-wide
    :class:`~repro.backend.plan_cache.ContractionPlanCache`, keyed on
    the core shapes only — the second batch of a run hits the cache
    regardless of its occurrence count.
    """
    bk = get_backend()
    plan = get_plan_cache().chain_plan(
        "chain_forward", tuple(c.shape for c in cores)
    )
    with bk.zone(zone):
        left = bk.gather_rows(cores[0], tt_idx[0])  # (L, 1, n_1, R_1)
        batch = left.shape[0]
        # Widths come from the plan, never from -1: an all-empty batch
        # (L == 0) leaves reshape nothing to infer a dimension from.
        left = left.reshape(batch, plan.stages[0].n_k, plan.stages[0].r_out)
        left_partials = [left]
        for stage in plan.stages[1:]:
            k = stage.core_index
            slice_k = bk.gather_rows(cores[k], tt_idx[k])  # (L, R_{k-1}, n_k, R_k)
            # (L, a, r) @ (L, r, n*s) -> (L, a*n, s): one batched GEMM per
            # core, the cublasGemmBatchedEx shape of the paper's kernel.
            left = bk.matmul(
                left, slice_k.reshape(batch, stage.r_in, stage.out_width)
            )
            left = left.reshape(batch, stage.prefix_width * stage.n_k, stage.r_out)
            left_partials.append(left)
        rows = left.reshape(batch, left.shape[1] * left.shape[2])
    return rows, left_partials


def tt_svd(
    table: np.ndarray,
    row_shape: Sequence[int],
    col_shape: Sequence[int],
    rank: Union[int, Sequence[int]],
) -> Tuple[List[np.ndarray], TTSpec]:
    """Decompose a dense table into TT cores via successive SVDs.

    The table is reshaped to the ``d``-dimensional tensor with mode
    sizes ``(m_1*n_1, ..., m_d*n_d)`` (row and column factors
    interleaved, Figure 3) and decomposed with the standard TT-SVD
    sweep, truncating each unfolding to the requested rank.

    Returns ``(cores, spec)`` where ``spec.ranks`` holds the *achieved*
    ranks (they may be smaller than requested when the unfolding's
    numerical rank is lower).
    """
    # The SVD sweep runs in float64 whatever dtype the cores are kept at.
    table = np.asarray(table, dtype=np.float64)  # reprolint: disable=REP003 (TT-SVD)
    d = len(row_shape)
    expected = (math.prod(row_shape), math.prod(col_shape))
    if table.shape != expected:
        raise ValueError(
            f"table shape {table.shape} does not match factorization "
            f"{expected}"
        )
    boundary = clamp_ranks(row_shape, col_shape, rank)

    # (M, N) -> (m_1..m_d, n_1..n_d) -> interleave -> (m_1*n_1, ..., m_d*n_d)
    tensor = table.reshape(*row_shape, *col_shape)
    perm = [axis for k in range(d) for axis in (k, d + k)]
    tensor = tensor.transpose(perm)
    mode_sizes = [m * n for m, n in zip(row_shape, col_shape)]
    tensor = tensor.reshape(mode_sizes)

    flat_cores: List[np.ndarray] = []
    achieved = [1]
    unfolding = tensor.reshape(mode_sizes[0], -1)
    for k in range(d - 1):
        r_prev = achieved[-1]
        rows = r_prev * mode_sizes[k]
        unfolding = unfolding.reshape(rows, -1)
        u, s, vt = np.linalg.svd(unfolding, full_matrices=False)
        # Drop numerically-zero singular values before rank truncation.
        tol = s[0] * max(unfolding.shape) * np.finfo(unfolding.dtype).eps if s.size else 0.0
        numerical_rank = max(1, int(np.count_nonzero(s > tol)))
        r_k = min(boundary[k + 1], numerical_rank)
        flat_cores.append(u[:, :r_k].reshape(r_prev, mode_sizes[k], r_k))
        unfolding = (s[:r_k, None] * vt[:r_k])
        achieved.append(r_k)
    flat_cores.append(
        unfolding.reshape(achieved[-1], mode_sizes[-1], 1)
    )
    achieved.append(1)

    spec = TTSpec(tuple(row_shape), tuple(col_shape), tuple(achieved))
    cores = []
    for k, flat in enumerate(flat_cores):
        m_k, n_k = row_shape[k], col_shape[k]
        r_prev, _, r_next = flat.shape
        cores.append(
            np.ascontiguousarray(
                flat.reshape(r_prev, m_k, n_k, r_next).transpose(1, 0, 2, 3)
            )
        )
    return cores, spec
