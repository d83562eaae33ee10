"""ROBE-style shared-array embedding bag (Random Offset Block Embedding).

Instead of one vector per (hashed) row, ROBE keeps a single flat
weight array of ``array_size`` floats and materializes each logical
row out of it on the fly: the row's ``embedding_dim`` values are read
as ``dim / chunk_size`` contiguous chunks whose start offsets come
from a deterministic universal hash of ``(row, chunk)``, each chunk
flipped by a universal sign hash.  Every float in the array is shared
by many (row, position) pairs, so the footprint is *independent of the
table cardinality* — the compression knob is just ``array_size``.

The hash family is the classic Carter–Wegman
``((a*x + b) mod P) mod S`` with ``P = 2^31 - 1`` (Mersenne prime) and
seed-derived constants.  The constants are part of
:meth:`compression_spec` so a checkpointed bag rebuilds with identical
addressing regardless of the restorer's seed.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import (
    ZONE_COMPRESS_UPDATE,
    ZONE_ROBE_LOOKUP,
    get_backend,
)
from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import SpecParamValue
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["RobeEmbeddingBag", "default_robe_size", "MERSENNE_PRIME_31"]

#: Universal-hash modulus: the 31-bit Mersenne prime.
MERSENNE_PRIME_31 = 2**31 - 1


def default_robe_size(
    num_embeddings: int, embedding_dim: int, compress_rate: float
) -> int:
    """Default shared-array length for a target compression rate."""
    if not 0.0 < compress_rate <= 1.0:
        raise ValueError(
            f"compress_rate must be in (0, 1], got {compress_rate}"
        )
    dense = num_embeddings * embedding_dim
    return max(embedding_dim, min(dense, math.ceil(dense * compress_rate)))


class RobeEmbeddingBag(EmbeddingBagBase):
    """Flat shared weight array with universal-hash chunk addressing.

    Parameters
    ----------
    num_embeddings, embedding_dim:
        Logical table shape.
    array_size:
        Shared array length ``S``; defaults from ``compress_rate``.
    compress_rate:
        Target ``S / (rows * dim)`` ratio when ``array_size`` is absent.
    chunk_size:
        Block length ``Z`` (must divide ``embedding_dim``).  One hash
        per ``(row, chunk)``; ``Z == embedding_dim`` (default) hashes
        once per row, ``Z == 1`` hashes every element independently.
    hash_params:
        Optional explicit ``(a1, a2, a3, a4, b0, b1)`` universal-hash
        constants (checkpoint restore); drawn from ``seed`` otherwise.
    seed:
        RNG for initialization and hash constants.
    """

    kind = "robe"
    grad_zone = ZONE_ROBE_LOOKUP
    config_knobs = ("compress_rate",)

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        array_size: Optional[int] = None,
        compress_rate: float = 0.25,
        chunk_size: Optional[int] = None,
        hash_params: Optional[Tuple[int, int, int, int, int, int]] = None,
        seed: RngLike = 0,
        dtype: DTypeLike = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(num_embeddings, embedding_dim, dtype)
        if array_size is None:
            array_size = default_robe_size(
                num_embeddings, embedding_dim, compress_rate
            )
        array_size = int(array_size)
        if array_size < 1:
            raise ValueError(f"array_size must be >= 1, got {array_size}")
        chunk_size = int(
            chunk_size if chunk_size is not None else embedding_dim
        )
        if chunk_size < 1 or embedding_dim % chunk_size != 0:
            raise ValueError(
                f"chunk_size must divide embedding_dim={embedding_dim}, "
                f"got {chunk_size}"
            )
        self.array_size = array_size
        self.chunk_size = chunk_size
        self.num_chunks = embedding_dim // chunk_size
        rng = ensure_rng(seed)
        if hash_params is None:
            draws = rng.integers(
                1, MERSENNE_PRIME_31, size=6, dtype=np.int64
            )
            hash_params = (
                int(draws[0]), int(draws[1]), int(draws[2]),
                int(draws[3]), int(draws[4]), int(draws[5]),
            )
        if len(hash_params) != 6 or any(
            not 0 < int(p) < MERSENNE_PRIME_31 for p in hash_params
        ):
            raise ValueError(
                "hash_params must be six ints in (0, 2^31 - 1), got "
                f"{hash_params!r}"
            )
        self.hash_params = tuple(int(p) for p in hash_params)
        bound = 1.0 / np.sqrt(array_size)
        self.weight = rng.uniform(
            -bound, bound, size=array_size
        ).astype(self.dtype)

    # -- universal-hash addressing ------------------------------------
    def _positions_signs(
        self, idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat offsets + chunk signs for each occurrence.

        Returns ``(positions, signs)``, both ``(len(idx), dim)``;
        positions index the flat array, signs are ±1 in the bag dtype.
        All index math is int64: constants are < 2^31 and realistic
        cardinalities < 2^31, so products stay far below 2^63.
        """
        a1, a2, a3, a4, b0, b1 = self.hash_params
        prime = np.int64(MERSENNE_PRIME_31)
        size = np.int64(self.array_size)
        rows = idx[:, None].astype(np.int64)
        chunks = np.arange(self.num_chunks, dtype=np.int64)[None, :]
        offsets = ((a1 * rows + a2 * chunks + b0) % prime) % size  # (L, C)
        lanes = np.arange(self.chunk_size, dtype=np.int64)
        positions = (offsets[:, :, None] + lanes[None, None, :]) % size
        sign_bits = ((a3 * rows + a4 * chunks + b1) % prime) % np.int64(2)
        signs = (1 - 2 * sign_bits).astype(self.dtype)  # (L, C) in ±1
        return (
            positions.reshape(idx.size, self.embedding_dim),
            np.repeat(signs, self.chunk_size, axis=1),
        )

    def _lookup(
        self, idx: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        positions, signs = self._positions_signs(idx)
        bk = get_backend()
        with bk.zone(ZONE_ROBE_LOOKUP):
            flat = bk.gather_rows(
                self.weight.reshape(-1, 1), positions.reshape(-1)
            )
            rows = flat.reshape(positions.shape) * signs
        return rows, (positions, signs)

    def _accumulate(
        self, context: Tuple[np.ndarray, np.ndarray], row_grads: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        positions, signs = context
        # Chain rule through the sign flip.
        return positions, row_grads * signs

    def _apply(self, pending: Tuple[np.ndarray, np.ndarray], lr: float) -> None:
        positions, row_grads = pending
        bk = get_backend()
        with bk.zone(ZONE_COMPRESS_UPDATE):
            bk.scatter_add_rows(
                self.weight.reshape(-1, 1),
                positions.reshape(-1),
                row_grads.reshape(-1, 1),
                scale=-lr,
            )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight}

    def _normalize_state(self, name: str, stored: np.ndarray) -> np.ndarray:
        return stored.reshape(-1)

    def _spec_params(self) -> Dict[str, SpecParamValue]:
        return {
            "array_size": self.array_size,
            "chunk_size": self.chunk_size,
            "hash_params": self.hash_params,
        }

    def compression_ratio(self) -> float:
        return (
            self.num_embeddings * self.embedding_dim / self.array_size
        )

    @staticmethod
    def estimate_bytes(
        num_embeddings: int,
        embedding_dim: int,
        dtype_bytes: int = DEFAULT_DTYPE.itemsize,
        array_size: Optional[int] = None,
        compress_rate: float = 0.25,
    ) -> int:
        """``memory_bytes()`` of the bag these constructor keywords build."""
        if array_size is None:
            array_size = default_robe_size(
                num_embeddings, embedding_dim, compress_rate
            )
        return int(array_size) * int(dtype_bytes)
