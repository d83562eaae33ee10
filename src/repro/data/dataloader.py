"""Deterministic synthetic click-log batches and dataset statistics.

:class:`SyntheticClickLog` turns a :class:`~repro.data.datasets.DatasetSpec`
into an indexable stream of training batches.  Batches are generated on
demand and *deterministically* — batch ``i`` is always the same for a
given seed — so the pipeline executor, the sequential executor and
every framework baseline train on bit-identical data.

Labels come from a planted logistic teacher: each table row carries a
hidden deterministic score and the click probability is a sigmoid of
the dense projection plus pooled row scores.  The signal makes the
accuracy/convergence experiments (Table IV, Figure 15) meaningful: a
model that learns the embeddings recovers the teacher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import DatasetSpec
from repro.data.synthetic import ClusteredZipfSampler
from repro.reorder.bijection import IndexBijection
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "Batch",
    "SyntheticClickLog",
    "unique_index_stats",
    "cumulative_access_curve",
]


@dataclass
class Batch:
    """One training batch.

    Attributes
    ----------
    dense:
        ``(B, num_dense)`` numerical features.
    sparse_indices:
        Per-table flat index arrays.
    sparse_offsets:
        Per-table bag offsets (boundary form, length ``B+1``).
    labels:
        ``(B,)`` float click labels in {0, 1}.
    batch_id:
        Position in the stream (for pipeline bookkeeping).
    """

    dense: np.ndarray
    sparse_indices: List[np.ndarray]
    sparse_offsets: List[np.ndarray]
    labels: np.ndarray
    batch_id: int = 0

    @property
    def batch_size(self) -> int:
        return int(self.dense.shape[0])

    @property
    def num_tables(self) -> int:
        return len(self.sparse_indices)

    def remap(self, bijections: Sequence[Optional[IndexBijection]]) -> "Batch":
        """Apply per-table index bijections (reordered training data)."""
        if len(bijections) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} bijections, got {len(bijections)}"
            )
        new_indices = [
            bij.apply(idx) if bij is not None else idx
            for idx, bij in zip(self.sparse_indices, bijections)
        ]
        return Batch(
            dense=self.dense,
            sparse_indices=new_indices,
            sparse_offsets=self.sparse_offsets,
            labels=self.labels,
            batch_id=self.batch_id,
        )


def _hidden_row_score(table_seed: int, indices: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random per-row teacher score in [-1, 1].

    A splitmix64-style integer hash of (table_seed, row) — stateless, so
    the teacher never needs a materialized table even at 40M rows.
    """
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        x = indices.astype(np.uint64) + np.uint64(table_seed) * np.uint64(
            0x9E3779B97F4A7C15
        )
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    # Drawn in float64 like every synthetic feature; the model casts on intake.
    return (x.astype(np.float64) / float(2**64)) * 2.0 - 1.0


class SyntheticClickLog:
    """Deterministic synthetic CTR stream for a dataset spec.

    Parameters
    ----------
    spec:
        Dataset schema (Table II).
    batch_size:
        Samples per batch (paper uses 4K end to end).
    locality:
        Temporal-clustering strength passed to the per-table samplers
        (0 = pure global Zipf).
    seed:
        Master seed; every batch derives its own child generator, so
        random access is cheap and order-independent.
    teacher_strength:
        Scale of the planted signal; 0 makes labels pure noise.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        batch_size: int = 4096,
        locality: float = 0.3,
        seed: int = 0,
        teacher_strength: float = 1.5,
    ) -> None:
        check_positive(batch_size, "batch_size")
        self.spec = spec
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.teacher_strength = float(teacher_strength)
        self.samplers = [
            ClusteredZipfSampler(
                table.num_rows,
                alpha=table.alpha,
                locality=locality,
                cluster_size=max(16, table.num_rows // 64),
                seed=(seed, t),
            )
            for t, table in enumerate(spec.tables)
        ]
        teacher_rng = ensure_rng((seed, 0xD1CE))
        self._dense_teacher = teacher_rng.normal(
            0.0, 1.0 / np.sqrt(max(1, spec.num_dense)), size=spec.num_dense
        )
        self._bias = -1.1  # ~25% positive rate, typical CTR base rate

    @property
    def num_batches(self) -> int:
        return max(1, self.spec.num_samples // self.batch_size)

    def batch(self, batch_id: int) -> Batch:
        """Generate batch ``batch_id`` (deterministic random access)."""
        if batch_id < 0:
            raise ValueError(f"batch_id must be >= 0, got {batch_id}")
        rng = ensure_rng((self.seed, 1, batch_id))
        b = self.batch_size
        dense = rng.normal(0.0, 1.0, size=(b, self.spec.num_dense))
        logits = dense @ self._dense_teacher + self._bias
        sparse_indices: List[np.ndarray] = []
        sparse_offsets: List[np.ndarray] = []
        for t, (table, sampler) in enumerate(zip(self.spec.tables, self.samplers)):
            count = b * table.bag_size
            idx = sampler.sample_batch(count, rng)
            offsets = np.arange(0, count + 1, table.bag_size, dtype=np.int64)
            sparse_indices.append(idx)
            sparse_offsets.append(offsets)
            scores = _hidden_row_score(t + 1, idx).reshape(b, table.bag_size)
            logits = logits + self.teacher_strength * scores.mean(axis=1) / np.sqrt(
                self.spec.num_sparse
            )
        probs = 1.0 / (1.0 + np.exp(-logits))
        # Data stays float64; the model casts a batch to its dtype once, on intake.
        labels = (rng.random(b) < probs).astype(np.float64)
        return Batch(
            dense=dense,
            sparse_indices=sparse_indices,
            sparse_offsets=sparse_offsets,
            labels=labels,
            batch_id=batch_id,
        )

    def batches(self, count: int, start: int = 0) -> Iterator[Batch]:
        """Yield ``count`` consecutive batches starting at ``start``."""
        for i in range(start, start + count):
            yield self.batch(i)

    def table_index_stream(
        self, table_idx: int, num_batches: int, start: int = 0
    ) -> List[np.ndarray]:
        """Index arrays of one table over a window of batches.

        The input to index-graph generation (Algorithm 2) and the
        dataset-statistics figures.
        """
        if not 0 <= table_idx < self.spec.num_sparse:
            raise ValueError(
                f"table_idx must be in [0, {self.spec.num_sparse}), got {table_idx}"
            )
        return [
            self.batch(i).sparse_indices[table_idx]
            for i in range(start, start + num_batches)
        ]


def unique_index_stats(
    batches: Sequence[np.ndarray],
) -> Dict[str, float]:
    """Average unique-index statistics over batches (Figure 4b).

    Returns the mean occurrences, mean unique count, and their ratio —
    the "large gap" the in-advance gradient aggregation exploits.
    """
    if not batches:
        raise ValueError("no batches supplied")
    occurrences = [int(np.asarray(b).size) for b in batches]
    uniques = [int(np.unique(np.asarray(b)).size) for b in batches]
    mean_occ = float(np.mean(occurrences))
    mean_unique = float(np.mean(uniques))
    return {
        "mean_indices_per_batch": mean_occ,
        "mean_unique_per_batch": mean_unique,
        "duplication_factor": mean_occ / mean_unique if mean_unique else 1.0,
    }


def cumulative_access_curve(
    batches: Sequence[np.ndarray],
    num_rows: int,
    points: int = 100,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative access share of rows sorted by popularity (Figure 4a).

    Returns ``(fraction_of_rows, fraction_of_accesses)`` arrays of
    length ``points``; e.g. a highly skewed table shows >0.9 access
    share at 0.1 row share.
    """
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows}")
    counts = np.zeros(num_rows, dtype=np.int64)
    for batch in batches:
        np.add.at(counts, np.asarray(batch, dtype=np.int64), 1)
    total = counts.sum()
    if total == 0:
        raise ValueError("batches contain no indices")
    sorted_counts = np.sort(counts)[::-1]
    cumulative = np.cumsum(sorted_counts) / total
    row_fractions = np.linspace(0.0, 1.0, points + 1)[1:]
    positions = np.minimum(
        (row_fractions * num_rows).astype(np.int64), num_rows - 1
    )
    return row_fractions, cumulative[positions]
