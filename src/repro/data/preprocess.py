"""Click-log preprocessing (the NVTabular role in the paper's setup).

The paper preprocesses Criteo/Avazu with Nvidia NVTabular (§VI-A):
raw categorical strings are hashed/encoded into contiguous ids,
infrequent categories are folded into an out-of-vocabulary bucket, and
numerical features are normalized.  This module reproduces those
transforms for raw synthetic logs so the full ingest path exists:

* :class:`CategoryEncoder` — frequency-threshold vocabulary builder
  mapping raw categorical values to contiguous ids with an OOV bucket
  (id 0), exactly the ``Categorify(freq_threshold=...)`` op.
* :class:`DenseNormalizer` — log1p + standardization of numerical
  features (the standard Criteo recipe).
* :func:`hash_encode` — stateless feature hashing for features whose
  vocabulary is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["CategoryEncoder", "DenseNormalizer", "hash_encode"]


def hash_encode(values: np.ndarray, num_buckets: int, seed: int = 0) -> np.ndarray:
    """Stateless feature hashing of integer-coded raw values.

    Maps arbitrary non-negative integer tokens into ``[0, num_buckets)``
    with a splitmix64-style mix — the "hashing trick" baseline of the
    paper's related work [49].  Deterministic for a given seed.
    """
    check_positive(num_buckets, "num_buckets")
    vals = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = vals + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_buckets)).astype(np.int64)


@dataclass
class CategoryEncoder:
    """Frequency-threshold categorical encoder (``Categorify`` analog).

    Two-phase use: ``fit`` on (an iterator of) raw value arrays to
    build the vocabulary, then ``transform`` maps raw values to ids.
    Values seen fewer than ``min_frequency`` times — and values never
    seen during fitting — map to the OOV bucket, id ``0``.  Retained
    vocabulary entries get ids ``1..cardinality-1`` in descending
    frequency order (so id magnitude correlates with popularity, which
    also primes the tables for TT-prefix locality).

    Attributes
    ----------
    min_frequency:
        Occurrence threshold below which values are folded into OOV.
    max_cardinality:
        Optional hard cap on vocabulary size (keeps the most frequent).
    """

    min_frequency: int = 1
    max_cardinality: Optional[int] = None
    _counts: Dict[int, int] = field(default_factory=dict, repr=False)
    _vocab: Optional[Dict[int, int]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.min_frequency < 1:
            raise ValueError(
                f"min_frequency must be >= 1, got {self.min_frequency}"
            )
        if self.max_cardinality is not None and self.max_cardinality < 1:
            raise ValueError(
                f"max_cardinality must be >= 1, got {self.max_cardinality}"
            )

    # -- fitting -------------------------------------------------------
    def partial_fit(self, raw_values: np.ndarray) -> "CategoryEncoder":
        """Accumulate value counts from one chunk of the log."""
        if self._vocab is not None:
            raise RuntimeError("encoder already finalized")
        vals, counts = np.unique(
            np.asarray(raw_values, dtype=np.int64), return_counts=True
        )
        for v, c in zip(vals.tolist(), counts.tolist()):
            self._counts[v] = self._counts.get(v, 0) + c
        return self

    def fit(self, chunks: Iterable[np.ndarray]) -> "CategoryEncoder":
        """Fit over an iterable of raw-value arrays, then finalize."""
        for chunk in chunks:
            self.partial_fit(chunk)
        return self.finalize()

    def finalize(self) -> "CategoryEncoder":
        """Freeze the vocabulary; call after the last ``partial_fit``."""
        if self._vocab is not None:
            return self
        kept = [
            (count, value)
            for value, count in self._counts.items()
            if count >= self.min_frequency
        ]
        # Descending frequency, ties by value for determinism.
        kept.sort(key=lambda pair: (-pair[0], pair[1]))
        if self.max_cardinality is not None:
            kept = kept[: self.max_cardinality - 1]  # reserve id 0 for OOV
        self._vocab = {
            value: idx + 1 for idx, (_, value) in enumerate(kept)
        }
        self._counts.clear()
        return self

    # -- transform -----------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Encoded vocabulary size including the OOV bucket."""
        if self._vocab is None:
            raise RuntimeError("encoder not finalized; call fit/finalize")
        return len(self._vocab) + 1

    def transform(self, raw_values: np.ndarray) -> np.ndarray:
        """Map raw values to ids in ``[0, cardinality)`` (0 = OOV)."""
        if self._vocab is None:
            raise RuntimeError("encoder not finalized; call fit/finalize")
        vals = np.asarray(raw_values, dtype=np.int64)
        out = np.zeros(vals.shape, dtype=np.int64)
        # vectorized dict lookup via sorted key array
        if self._vocab:
            keys = np.fromiter(self._vocab.keys(), dtype=np.int64)
            ids = np.fromiter(self._vocab.values(), dtype=np.int64)
            order = np.argsort(keys)
            keys, ids = keys[order], ids[order]
            pos = np.searchsorted(keys, vals)
            pos = np.minimum(pos, keys.size - 1)
            hit = keys[pos] == vals
            out[hit] = ids[pos[hit]]
        return out

    def oov_rate(self, raw_values: np.ndarray) -> float:
        """Fraction of values mapping to the OOV bucket."""
        encoded = self.transform(raw_values)
        return float((encoded == 0).mean()) if encoded.size else 0.0


@dataclass
class DenseNormalizer:
    """Numerical-feature normalization: ``log1p`` then standardize.

    The Criteo recipe: counts span orders of magnitude, so a log
    transform precedes per-feature zero-mean/unit-variance scaling.
    Negative raw values (Criteo uses -1/-2 sentinels) clamp to 0 before
    the log.
    """

    log_transform: bool = True
    _mean: Optional[np.ndarray] = field(default=None, repr=False)
    _std: Optional[np.ndarray] = field(default=None, repr=False)
    _count: int = field(default=0, repr=False)
    _sum: Optional[np.ndarray] = field(default=None, repr=False)
    _sumsq: Optional[np.ndarray] = field(default=None, repr=False)

    def _pre(self, dense: np.ndarray) -> np.ndarray:
        # Data stays float64; the model casts a batch to its dtype once, on intake.
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        if self.log_transform:
            dense = np.log1p(np.maximum(dense, 0.0))
        return dense

    def partial_fit(self, dense: np.ndarray) -> "DenseNormalizer":
        """Accumulate running moments from one chunk."""
        pre = self._pre(dense)
        if self._sum is None:
            self._sum = pre.sum(axis=0)
            self._sumsq = (pre**2).sum(axis=0)
        else:
            if pre.shape[1] != self._sum.size:
                raise ValueError(
                    f"feature count changed: {pre.shape[1]} != {self._sum.size}"
                )
            self._sum += pre.sum(axis=0)
            self._sumsq += (pre**2).sum(axis=0)
        self._count += pre.shape[0]
        return self

    def finalize(self) -> "DenseNormalizer":
        if self._sum is None or self._count == 0:
            raise RuntimeError("no data accumulated")
        self._mean = self._sum / self._count
        var = np.maximum(self._sumsq / self._count - self._mean**2, 0.0)
        self._std = np.sqrt(var)
        self._std[self._std < 1e-12] = 1.0  # constant features pass through
        return self

    def fit(self, chunks: Iterable[np.ndarray]) -> "DenseNormalizer":
        for chunk in chunks:
            self.partial_fit(chunk)
        return self.finalize()

    def transform(self, dense: np.ndarray) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise RuntimeError("normalizer not finalized; call fit/finalize")
        pre = self._pre(dense)
        if pre.shape[1] != self._mean.size:
            raise ValueError(
                f"feature count mismatch: {pre.shape[1]} != {self._mean.size}"
            )
        return (pre - self._mean) / self._std
