"""Locality metrics quantifying the effect of index reordering.

These metrics drive the reordering ablations (Figures 14, 17, 18): the
Eff-TT reuse buffer issues one partial GEMM per unique TT prefix in a
batch, so the unique-prefix count directly measures the computation a
reordering saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.synthetic import analytic_hot_mass
from repro.embeddings.reuse_buffer import build_reuse_plan
from repro.reorder.bijection import IndexBijection

__all__ = [
    "BatchLocalityStats",
    "batch_locality_stats",
    "reuse_improvement",
    "TableStats",
    "analytic_table_stats",
    "measure_table_stats",
    "table_stats_from_log",
    "profile_tables",
]


@dataclass(frozen=True)
class BatchLocalityStats:
    """Reuse statistics of one batch against one TT factorization.

    Attributes
    ----------
    num_occurrences:
        Total index occurrences ``L`` in the batch.
    num_unique_rows:
        Unique row count ``U`` (Figure 4b's gap is ``L - U``).
    num_unique_prefixes:
        Unique TT-prefix count ``P`` — partial GEMMs required.
    """

    num_occurrences: int
    num_unique_rows: int
    num_unique_prefixes: int

    @property
    def full_row_reuse_ratio(self) -> float:
        return (
            self.num_occurrences / self.num_unique_rows
            if self.num_unique_rows
            else 1.0
        )

    @property
    def prefix_reuse_ratio(self) -> float:
        return (
            self.num_unique_rows / self.num_unique_prefixes
            if self.num_unique_prefixes
            else 1.0
        )


def batch_locality_stats(
    indices: np.ndarray,
    row_shape: Sequence[int],
    bijection: Optional[IndexBijection] = None,
) -> BatchLocalityStats:
    """Compute reuse statistics for one batch, optionally reordered."""
    idx = np.asarray(indices, dtype=np.int64)
    if bijection is not None:
        idx = bijection.apply(idx)
    plan = build_reuse_plan(idx, row_shape)
    return BatchLocalityStats(
        num_occurrences=plan.num_occurrences,
        num_unique_rows=plan.num_unique_rows,
        num_unique_prefixes=plan.num_unique_prefixes,
    )


def reuse_improvement(
    batches: Iterable[np.ndarray],
    row_shape: Sequence[int],
    bijection: IndexBijection,
) -> Dict[str, float]:
    """Aggregate before/after-reordering reuse statistics.

    Returns a dict with mean unique-prefix counts before and after the
    bijection and the resulting partial-GEMM reduction factor
    (``>1`` means the reordering saved work).
    """
    before_prefixes = []
    after_prefixes = []
    for batch in batches:
        before = batch_locality_stats(batch, row_shape)
        after = batch_locality_stats(batch, row_shape, bijection)
        before_prefixes.append(before.num_unique_prefixes)
        after_prefixes.append(after.num_unique_prefixes)
    if not before_prefixes:
        raise ValueError("no batches supplied")
    mean_before = float(np.mean(before_prefixes))
    mean_after = float(np.mean(after_prefixes))
    return {
        "mean_unique_prefixes_before": mean_before,
        "mean_unique_prefixes_after": mean_after,
        "partial_gemm_reduction": mean_before / mean_after if mean_after else 1.0,
    }


# ---------------------------------------------------------------------------
# per-table access statistics for placement planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableStats:
    """Access-distribution summary of one sparse table.

    The statistics the table planner
    (:mod:`repro.embeddings.planner`) consumes: cardinality, measured
    Zipf skew, and hot-set mass.  Built either from an observed index
    stream (:func:`measure_table_stats` /
    :func:`table_stats_from_log`) or analytically from a dataset
    spec's configured skew (:meth:`from_spec`).

    Attributes
    ----------
    table_idx:
        Position of the table in the model / dataset spec.
    num_rows:
        Table cardinality.
    zipf_alpha:
        Skew exponent: a least-squares fit of ``log(count)`` against
        ``log(rank)`` over the observed rows (0 = uniform).
    hot_fraction:
        Fraction of rows considered the "hot set" (rank order).
    hot_mass:
        Fraction of accesses landing in the hot set — the quantity
        that decides whether a hot/cold split pays off.
    total_accesses:
        Number of index occurrences the measurement saw (0 for
        analytic stats).
    unique_fraction:
        Observed distinct rows / ``num_rows`` (1.0 for analytic
        stats) — low values mean most of the table is dead weight.
    """

    table_idx: int
    num_rows: int
    zipf_alpha: float
    hot_fraction: float
    hot_mass: float
    total_accesses: int = 0
    unique_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {self.num_rows}")
        if not 0.0 <= self.hot_mass <= 1.0:
            raise ValueError(f"hot_mass must be in [0, 1], got {self.hot_mass}")

    @property
    def hot_rows(self) -> int:
        """Row count of the hot set (``ceil(hot_fraction * num_rows)``)."""
        return int(np.ceil(self.hot_fraction * self.num_rows))

    @property
    def skewed(self) -> bool:
        """Whether the hot set dominates (mass above its row share)."""
        return self.hot_mass > min(1.0, 2.0 * self.hot_fraction)

    @classmethod
    def from_spec(
        cls,
        table_idx: int,
        num_rows: int,
        alpha: float,
        hot_fraction: float = 0.1,
    ) -> "TableStats":
        """Analytic stats from a configured Zipf exponent (no stream)."""
        return cls(
            table_idx=table_idx,
            num_rows=int(num_rows),
            zipf_alpha=float(alpha),
            hot_fraction=float(hot_fraction),
            hot_mass=analytic_hot_mass(num_rows, alpha, hot_fraction),
        )


def analytic_table_stats(
    table_rows: Sequence[int], alpha: float = 1.05
) -> List[TableStats]:
    """Analytic per-table stats when no profiling window is available.

    The default skew matches the synthetic data generators' default.
    """
    return [
        TableStats.from_spec(t, rows, alpha)
        for t, rows in enumerate(table_rows)
    ]


def measure_table_stats(
    indices: np.ndarray,
    num_rows: int,
    table_idx: int = 0,
    hot_fraction: float = 0.1,
) -> TableStats:
    """Measure :class:`TableStats` from an observed index stream.

    The Zipf exponent is fit by least squares on the log-log
    rank/frequency curve over rows that were actually accessed — the
    standard frequency-plot estimate, deterministic and robust enough
    to separate "uniform" from "paper-grade skew" for placement.
    """
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows}")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in (0, 1], got {hot_fraction}"
        )
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("cannot measure statistics from an empty stream")
    if idx.min() < 0 or idx.max() >= num_rows:
        raise ValueError(
            f"indices out of range [0, {num_rows}) for table {table_idx}"
        )
    counts = np.bincount(idx, minlength=num_rows)
    # Access statistics, not model state: float64 whatever the model's dtype.
    ordered = np.sort(counts)[::-1].astype(np.float64)
    total = float(ordered.sum())
    hot_rows = int(np.ceil(hot_fraction * num_rows))
    hot_mass = float(ordered[:hot_rows].sum()) / total

    observed = ordered[ordered > 0]
    if observed.size < 2:
        alpha = 0.0
    else:
        log_rank = np.log(np.arange(1, observed.size + 1, dtype=np.float64))
        log_freq = np.log(observed)
        slope = float(np.polyfit(log_rank, log_freq, 1)[0])
        alpha = max(0.0, -slope)
    return TableStats(
        table_idx=table_idx,
        num_rows=int(num_rows),
        zipf_alpha=alpha,
        hot_fraction=float(hot_fraction),
        hot_mass=hot_mass,
        total_accesses=int(idx.size),
        unique_fraction=float(observed.size) / float(num_rows),
    )


def table_stats_from_log(
    log,
    table_idx: int,
    num_batches: int,
    hot_fraction: float = 0.1,
) -> TableStats:
    """Measure one table's :class:`TableStats` over a click-log prefix.

    ``log`` is a :class:`~repro.data.dataloader.SyntheticClickLog` (or
    anything with deterministic ``batch(i).sparse_indices`` and a
    ``spec.tables`` schema); batches ``0..num_batches-1`` form the
    profiling window, mirroring how RecShard profiles a training-data
    prefix before planning placement.
    """
    return _window_stats(
        log, _window(log, num_batches), table_idx, hot_fraction
    )


def profile_tables(
    log, num_batches: int, hot_fraction: float = 0.1
) -> List[TableStats]:
    """:func:`table_stats_from_log` for every table, one pass over the log.

    Each batch of the window is generated once and shared by all
    tables.
    """
    window = _window(log, num_batches)
    return [
        _window_stats(log, window, t, hot_fraction)
        for t in range(len(log.spec.tables))
    ]


def _window(log, num_batches: int) -> list:
    if num_batches < 1:
        raise ValueError(f"num_batches must be >= 1, got {num_batches}")
    return [log.batch(i) for i in range(num_batches)]


def _window_stats(
    log, window: list, table_idx: int, hot_fraction: float
) -> TableStats:
    return measure_table_stats(
        np.concatenate(
            [
                np.asarray(batch.sparse_indices[table_idx], dtype=np.int64)
                for batch in window
            ]
        ),
        num_rows=log.spec.tables[table_idx].num_rows,
        table_idx=table_idx,
        hot_fraction=hot_fraction,
    )
