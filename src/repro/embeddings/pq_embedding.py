"""Product-quantization embedding bag (DPQ-style codebooks + code table).

The embedding dimension is split into ``num_subspaces`` contiguous
subvectors.  Each subspace ``m`` owns a trainable codebook of
``num_codes`` centroid subvectors, and every logical row carries a
fixed code tuple ``codes[i] = (c_1 .. c_M)`` selecting one centroid
per subspace; the row vector is the concatenation of the selected
centroids.  Footprint: ``M * K * (dim/M)`` floats of codebook plus an
``(rows, M)`` int32 code table — the codes are the only per-row state,
so compression scales with ``dim`` rather than ``rows * dim``.

Following DPQ's end-to-end regime (but without the differentiable
code-assignment machinery), the code table is drawn once from a seeded
RNG and frozen, and the *codebooks* train via sparse scatter-add of
the pooled gradients — rows sharing a centroid co-train it exactly
like colliding hash buckets.

Default codebook capacity uses the ceil-cube rule
(:func:`~repro.utils.factorize.ceil_balanced_factors`): with ``K >=
max(ceil_balanced_factors(rows, M))`` the code space ``K^M`` can give
every row a distinct tuple.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import (
    ZONE_COMPRESS_UPDATE,
    ZONE_PQ_LOOKUP,
    get_backend,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import SpecParamValue
from repro.utils.factorize import ceil_balanced_factors
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "PQEmbeddingBag",
    "default_pq_subspaces",
    "default_pq_codes",
]

#: Largest codebook the planner/defaults will pick (one byte of code
#: space per subspace; explicit ``num_codes`` may exceed it).
MAX_DEFAULT_CODES = 256


def default_pq_subspaces(embedding_dim: int, target: int = 4) -> int:
    """Largest divisor of ``embedding_dim`` that is <= ``target``."""
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
    for m in range(min(target, embedding_dim), 0, -1):
        if embedding_dim % m == 0:
            return m
    return 1


def default_pq_codes(num_embeddings: int, num_subspaces: int) -> int:
    """Smallest balanced per-subspace codebook covering the table.

    ``ceil_balanced_factors(rows, M)`` gives near-equal factors whose
    product is >= ``rows``; their max is the smallest uniform ``K``
    with ``K^M >= rows`` (distinct code tuples for every row), capped
    at :data:`MAX_DEFAULT_CODES`.
    """
    capacity = max(ceil_balanced_factors(num_embeddings, num_subspaces))
    return max(2, min(MAX_DEFAULT_CODES, capacity))


class PQEmbeddingBag(EmbeddingBagBase):
    """Trainable codebooks + frozen random code table, sum pooling.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Logical table shape.
    num_subspaces:
        Subvector count ``M`` (must divide ``embedding_dim``);
        defaults to the largest divisor <= 4.
    num_codes:
        Codebook size ``K`` per subspace; defaults from the ceil-cube
        capacity rule.
    seed:
        RNG for codebook init and the frozen code table.
    """

    kind = "pq"
    grad_zone = ZONE_PQ_LOOKUP

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        num_subspaces: Optional[int] = None,
        num_codes: Optional[int] = None,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        if num_subspaces is None:
            num_subspaces = default_pq_subspaces(embedding_dim)
        num_subspaces = int(num_subspaces)
        if num_subspaces < 1 or embedding_dim % num_subspaces != 0:
            raise ValueError(
                f"num_subspaces must divide embedding_dim={embedding_dim}, "
                f"got {num_subspaces}"
            )
        if num_codes is None:
            num_codes = default_pq_codes(num_embeddings, num_subspaces)
        num_codes = int(num_codes)
        if num_codes < 1:
            raise ValueError(f"num_codes must be >= 1, got {num_codes}")
        self.num_subspaces = num_subspaces
        self.num_codes = num_codes
        self.subspace_dim = embedding_dim // num_subspaces
        rng = ensure_rng(seed)
        bound = 1.0 / np.sqrt(num_codes)
        self.codebooks: List[np.ndarray] = [
            rng.uniform(
                -bound, bound, size=(num_codes, self.subspace_dim)
            ).astype(self.dtype)
            for _ in range(num_subspaces)
        ]
        # Frozen code assignment: one centroid id per (row, subspace).
        self.codes = rng.integers(
            0, num_codes, size=(num_embeddings, num_subspaces),
            dtype=np.int32,
        )

    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate the selected centroids for each occurrence."""
        bk = get_backend()
        occ_codes = self.codes[idx]  # (L, M)
        with bk.zone(ZONE_PQ_LOOKUP):
            rows = bk.empty(
                (idx.size, self.embedding_dim), dtype=self.dtype
            )
            for m in range(self.num_subspaces):
                lo = m * self.subspace_dim
                rows[:, lo : lo + self.subspace_dim] = bk.gather_rows(
                    self.codebooks[m], occ_codes[:, m].astype(np.int64)
                )
        return rows, occ_codes

    def _apply(self, pending: Tuple[np.ndarray, np.ndarray], lr: float) -> None:
        occ_codes, row_grads = pending
        bk = get_backend()
        with bk.zone(ZONE_COMPRESS_UPDATE):
            for m in range(self.num_subspaces):
                lo = m * self.subspace_dim
                bk.scatter_add_rows(
                    self.codebooks[m],
                    occ_codes[:, m].astype(np.int64),
                    row_grads[:, lo : lo + self.subspace_dim],
                    scale=-lr,
                )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Live codebooks + code table (callers copy before persisting)."""
        arrays: Dict[str, np.ndarray] = {
            f"codebook{m}": book for m, book in enumerate(self.codebooks)
        }
        arrays["codes"] = self.codes
        return arrays

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {
            "num_subspaces": self.num_subspaces,
            "num_codes": self.num_codes,
        }

    def compression_ratio(self) -> float:
        dense = self.num_embeddings * self.embedding_dim * self.dtype.itemsize
        return dense / self.memory_bytes()

    @staticmethod
    def estimate_bytes(
        num_embeddings: int,
        embedding_dim: int,
        dtype_bytes: int = DEFAULT_DTYPE.itemsize,
        num_subspaces: Optional[int] = None,
        num_codes: Optional[int] = None,
    ) -> int:
        """``memory_bytes()`` of the bag these constructor keywords build."""
        if num_subspaces is None:
            num_subspaces = default_pq_subspaces(embedding_dim)
        if num_codes is None:
            num_codes = default_pq_codes(num_embeddings, num_subspaces)
        subspace_dim = embedding_dim // num_subspaces
        codebooks = num_subspaces * num_codes * subspace_dim * dtype_bytes
        codes = num_embeddings * num_subspaces * np.dtype(np.int32).itemsize
        return int(codebooks + codes)
