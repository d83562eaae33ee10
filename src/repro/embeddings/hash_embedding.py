"""Mod-hash compressed embedding bag (the "hashing trick").

The simplest compression strategy in the zoo: logical row ``i`` maps to
physical bucket ``i % num_buckets`` of a dense ``(num_buckets, dim)``
table.  Rows that collide share (and co-train) one vector.  This is
the baseline every compressed-embedding paper (Hetu's compression
suite, ROBE, DPQ) compares against: zero per-lookup arithmetic beyond
the modulo, footprint exactly ``num_buckets * dim`` floats, accuracy
degrading smoothly as buckets shrink.

Addressing is parameter-free (no hash constants), so a checkpoint
needs only ``num_buckets`` (in the spec) plus the weight array.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import (
    ZONE_COMPRESS_UPDATE,
    ZONE_HASH_LOOKUP,
    get_backend,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import SpecParamValue
from repro.utils.factorize import ceil_balanced_factors
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["HashEmbeddingBag", "default_hash_buckets"]


def default_hash_buckets(num_embeddings: int, compress_rate: float) -> int:
    """Default bucket count for a target compression rate.

    The raw target ``num_embeddings * compress_rate`` is rounded *up*
    to a near-balanced two-factor tile via
    :func:`~repro.utils.factorize.ceil_balanced_factors` — the same
    ceil-cube rule TT shape selection uses — so bucket tables stay
    rectangular-tileable, then clamped to ``[1, num_embeddings]``.
    """
    if not 0.0 < compress_rate <= 1.0:
        raise ValueError(
            f"compress_rate must be in (0, 1], got {compress_rate}"
        )
    target = max(1, math.ceil(num_embeddings * compress_rate))
    tiled = math.prod(ceil_balanced_factors(target, 2))
    return max(1, min(num_embeddings, tiled))


class HashEmbeddingBag(EmbeddingBagBase):
    """``(num_buckets, embedding_dim)`` table addressed by ``i % B``.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Logical table shape.
    num_buckets:
        Physical bucket count; defaults from ``compress_rate``.
    compress_rate:
        Target physical/logical row ratio when ``num_buckets`` is not
        given (Hetu-style global knob).
    seed:
        RNG for initialization.
    dtype:
        Storage dtype (default :data:`~repro.backend.DEFAULT_DTYPE`).
    """

    kind = "hash"
    grad_zone = ZONE_HASH_LOOKUP
    config_knobs = ("compress_rate",)

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        num_buckets: Optional[int] = None,
        compress_rate: float = 0.25,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        if num_buckets is None:
            num_buckets = default_hash_buckets(num_embeddings, compress_rate)
        num_buckets = int(num_buckets)
        if not 1 <= num_buckets <= num_embeddings:
            raise ValueError(
                f"num_buckets must be in [1, {num_embeddings}], "
                f"got {num_buckets}"
            )
        self.num_buckets = num_buckets
        rng = ensure_rng(seed)
        bound = 1.0 / np.sqrt(num_buckets)
        self.weight = rng.uniform(
            -bound, bound, size=(num_buckets, embedding_dim)
        ).astype(self.dtype)

    def _lookup(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        bk = get_backend()
        buckets = idx % np.int64(self.num_buckets)
        with bk.zone(ZONE_HASH_LOOKUP):
            rows = bk.gather_rows(self.weight, buckets)
        return rows, buckets

    def _apply(self, pending: Tuple[np.ndarray, np.ndarray], lr: float) -> None:
        buckets, row_grads = pending
        bk = get_backend()
        with bk.zone(ZONE_COMPRESS_UPDATE):
            bk.scatter_add_rows(self.weight, buckets, row_grads, scale=-lr)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight}

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {"num_buckets": self.num_buckets}

    def compression_ratio(self) -> float:
        return self.num_embeddings / self.num_buckets

    @staticmethod
    def estimate_bytes(
        num_embeddings: int,
        embedding_dim: int,
        dtype_bytes: int = DEFAULT_DTYPE.itemsize,
        num_buckets: Optional[int] = None,
        compress_rate: float = 0.25,
    ) -> int:
        """``memory_bytes()`` of the bag these constructor keywords build."""
        if num_buckets is None:
            num_buckets = default_hash_buckets(num_embeddings, compress_rate)
        return int(num_buckets) * int(embedding_dim) * int(dtype_bytes)
