"""Memory-budget auto-tuner: pick strategy + params per table.

Given per-table :class:`~repro.reorder.stats.TableStats` (cardinality
plus measured hot-mass skew) and a global byte budget, the planner
emits a :class:`CompressionPlan` assigning each table a compression
strategy and its parameters so that the summed realized
``memory_bytes()`` stays under the budget.

The search has the shape of Hetu's ``TTEmbTrainer._get_rank``: an
*outer* binary search over a single global compression-rate knob
``r`` — each table's byte target is ``dense_bytes * r`` — with an
*inner* per-table parameter search (largest TT rank / hash bucket
count / ROBE array size / PQ codebook size whose footprint fits the
target).  Per-table footprints are monotone in ``r``, so the outer
bisection is sound; the returned plan is the largest ``r`` whose total
fits.

Everything here is pure integer/float arithmetic over stats sorted by
``table_idx`` — plans are bitwise deterministic and independent of the
caller's insertion order.

Strategy selection (``strategy="auto"``), per table:

====================================  ==========================
condition (first match wins)          choice
====================================  ==========================
dense fits the table's byte target    ``dense`` (no compression)
skewed (hot_mass > 2 * hot_fraction)  ``tt`` (exact: no aliasing
                                      of hot rows)
unique_fraction < 0.5                 ``hash`` (dead rows collide
                                      harmlessly)
rows >= 65536 and PQ code table fits  ``pq`` (per-row cost is 1
                                      int32 code tuple)
otherwise                             ``robe``
====================================  ==========================

A forced strategy (``"hash"``/``"robe"``/``"pq"``/``"tt"``) applies to
every table; only the parameter search runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.protocol import DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.pq_embedding import (
    PQEmbeddingBag,
    default_pq_subspaces,
)
from repro.embeddings.protocol import CompressionSpec, SpecParamValue
from repro.embeddings.registry import build_bag_from_spec
from repro.embeddings.robe_embedding import RobeEmbeddingBag
from repro.embeddings.tt_core import TTSpec
from repro.reorder.stats import TableStats
from repro.utils.factorize import ceil_balanced_factors, suggest_tt_shapes
from repro.utils.rng import RngLike

__all__ = [
    "TablePlan",
    "CompressionPlan",
    "plan_compression",
    "binary_search_max",
    "build_bag_from_plan",
    "build_bag_from_spec",
    "COMPRESS_STRATEGIES",
]

#: Strategies the planner can assign (``auto`` resolves to one of these).
COMPRESS_STRATEGIES: Tuple[str, ...] = ("dense", "tt", "hash", "robe", "pq")

#: Strategy names that differ from the registry kind they build: the
#: planner's ``tt`` means the paper's Eff-TT table, not the TT-Rec one.
_PLAN_KINDS = {"tt": "eff_tt"}

#: TT rank search ceiling (Hetu searches 0..1000; ranks beyond this
#: stop compressing anything we train here).
_MAX_TT_RANK = 512

#: Row count above which PQ's fixed per-row code cost amortizes.
_PQ_ROWS_THRESHOLD = 65536

#: Outer bisection iterations: 2^-48 rate resolution.
_RATE_ITERS = 48


def binary_search_max(
    lo: int, hi: int, fits: Callable[[int], bool]
) -> Optional[int]:
    """Largest ``v`` in ``[lo, hi]`` with ``fits(v)``, or ``None``.

    ``fits`` must be monotone (True then False as ``v`` grows) — the
    Hetu ``_get_rank`` search shape.
    """
    if lo > hi or not fits(lo):
        return None
    best = lo
    while lo <= hi:
        mid = (lo + hi) // 2
        if fits(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


@dataclass(frozen=True)
class TablePlan:
    """One table's assignment: strategy, parameters, realized bytes."""

    table_idx: int
    num_rows: int
    strategy: str
    params: Tuple[Tuple[str, SpecParamValue], ...]
    memory_bytes: int
    dense_bytes: int

    def param_dict(self) -> Dict[str, SpecParamValue]:
        return {k: v for k, v in self.params}

    @property
    def compression_ratio(self) -> float:
        return self.dense_bytes / max(1, self.memory_bytes)


@dataclass(frozen=True)
class CompressionPlan:
    """Auto-tuner output: per-table strategy + params under a budget."""

    budget_bytes: int
    embedding_dim: int
    dtype_bytes: int
    rate: float
    tables: Tuple[TablePlan, ...] = field(default=())

    @property
    def total_bytes(self) -> int:
        return sum(t.memory_bytes for t in self.tables)

    @property
    def feasible(self) -> bool:
        return self.total_bytes <= self.budget_bytes

    @property
    def dense_total_bytes(self) -> int:
        return sum(t.dense_bytes for t in self.tables)

    def strategy_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self.tables:
            counts[t.strategy] = counts.get(t.strategy, 0) + 1
        return counts

    def format_table(self) -> str:
        lines = [
            f"{'table':>5}  {'rows':>10}  {'strategy':<8}  "
            f"{'bytes':>12}  {'ratio':>8}  params",
            "-" * 72,
        ]
        for t in self.tables:
            params = ", ".join(
                f"{k}={v}" for k, v in t.params if k != "hash_params"
            )
            lines.append(
                f"{t.table_idx:>5}  {t.num_rows:>10}  {t.strategy:<8}  "
                f"{t.memory_bytes:>12}  {t.compression_ratio:>7.1f}x  "
                f"{params}"
            )
        lines.append("-" * 72)
        lines.append(
            f"total {self.total_bytes:,} B of {self.budget_bytes:,} B "
            f"budget (dense {self.dense_total_bytes:,} B, "
            f"rate={self.rate:.4g}, "
            f"{'feasible' if self.feasible else 'INFEASIBLE'})"
        )
        return "\n".join(lines)


@lru_cache(maxsize=4096)
def _tt_shapes(num_rows: int, embedding_dim: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    rows, cols, _ = suggest_tt_shapes(num_rows, embedding_dim)
    return tuple(rows), tuple(cols)


def _tt_bytes(
    num_rows: int, embedding_dim: int, tt_rank: int, dtype_bytes: int
) -> int:
    row_shape, col_shape = _tt_shapes(num_rows, embedding_dim)
    spec = TTSpec.create(list(row_shape), list(col_shape), tt_rank)
    return spec.num_params * dtype_bytes


def _pq_min_bytes(
    num_rows: int, embedding_dim: int, dtype_bytes: int
) -> int:
    m = default_pq_subspaces(embedding_dim)
    return PQEmbeddingBag.estimate_bytes(
        num_rows, embedding_dim, m, 1, dtype_bytes
    )


def _params_for_target(
    strategy: str,
    num_rows: int,
    embedding_dim: int,
    target_bytes: int,
    dtype_bytes: int,
) -> Tuple[Dict[str, SpecParamValue], int]:
    """Largest-parameter configuration of ``strategy`` within target.

    Returns ``(params, realized_bytes)``.  When even the minimal
    configuration exceeds the target, the minimal one is returned (the
    outer search marks the plan infeasible if the total still busts
    the budget).
    """
    if strategy == "dense":
        return {}, num_rows * embedding_dim * dtype_bytes
    if strategy == "tt":
        rank = binary_search_max(
            1,
            _MAX_TT_RANK,
            lambda r: _tt_bytes(num_rows, embedding_dim, r, dtype_bytes)
            <= target_bytes,
        )
        rank = 1 if rank is None else rank
        return {"tt_rank": rank}, _tt_bytes(
            num_rows, embedding_dim, rank, dtype_bytes
        )
    if strategy == "hash":
        row_bytes = embedding_dim * dtype_bytes
        buckets = max(1, min(num_rows, target_bytes // row_bytes))
        return {"num_buckets": int(buckets)}, HashEmbeddingBag.estimate_bytes(
            buckets, embedding_dim, dtype_bytes
        )
    if strategy == "robe":
        size = max(
            1, min(num_rows * embedding_dim, target_bytes // dtype_bytes)
        )
        return {"array_size": int(size)}, RobeEmbeddingBag.estimate_bytes(
            size, dtype_bytes
        )
    if strategy == "pq":
        # The int32 code table costs num_rows * M * 4 bytes no matter
        # how small the codebooks get, so the search walks M down the
        # divisors of the dim (largest = finest quantization first) and
        # takes the first subspace count whose floor fits the target.
        # Within that M, K^M >= rows already gives every row a distinct
        # code tuple; larger codebooks buy nothing (ceil-cube capacity
        # rule).
        divisors = [
            m
            for m in range(default_pq_subspaces(embedding_dim), 0, -1)
            if embedding_dim % m == 0
        ]
        codebook_row_bytes = embedding_dim * dtype_bytes  # summed over m
        chosen_m, chosen_k = divisors[-1], 1  # minimal fallback
        for m in divisors:
            floor = PQEmbeddingBag.estimate_bytes(
                num_rows, embedding_dim, m, 1, dtype_bytes
            )
            if floor > target_bytes:
                continue
            capacity = max(ceil_balanced_factors(num_rows, m))
            chosen_m = m
            chosen_k = max(
                1,
                min(
                    capacity,
                    1 + (target_bytes - floor) // codebook_row_bytes,
                ),
            )
            break
        return {
            "num_subspaces": chosen_m,
            "num_codes": int(chosen_k),
        }, PQEmbeddingBag.estimate_bytes(
            num_rows, embedding_dim, chosen_m, chosen_k, dtype_bytes
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def _choose_strategy(
    st: TableStats,
    embedding_dim: int,
    target_bytes: int,
    dtype_bytes: int,
) -> str:
    """The ``auto`` decision rule (see module docstring)."""
    if st.num_rows * embedding_dim * dtype_bytes <= target_bytes:
        return "dense"
    if st.skewed:
        return "tt"
    if st.unique_fraction < 0.5:
        return "hash"
    if (
        st.num_rows >= _PQ_ROWS_THRESHOLD
        and _pq_min_bytes(st.num_rows, embedding_dim, dtype_bytes)
        <= target_bytes
    ):
        return "pq"
    return "robe"


def _plan_at_rate(
    stats: Sequence[TableStats],
    embedding_dim: int,
    rate: float,
    strategy: str,
    dtype_bytes: int,
) -> List[TablePlan]:
    plans: List[TablePlan] = []
    for st in stats:
        dense_bytes = st.num_rows * embedding_dim * dtype_bytes
        target = int(dense_bytes * rate)
        if strategy == "auto":
            chosen = _choose_strategy(
                st, embedding_dim, target, dtype_bytes
            )
        else:
            chosen = strategy
        params, realized = _params_for_target(
            chosen, st.num_rows, embedding_dim, target, dtype_bytes
        )
        plans.append(
            TablePlan(
                table_idx=st.table_idx,
                num_rows=st.num_rows,
                strategy=chosen,
                params=tuple(sorted(params.items())),
                memory_bytes=realized,
                dense_bytes=dense_bytes,
            )
        )
    return plans


def plan_compression(
    stats: Sequence[TableStats],
    embedding_dim: int,
    budget_bytes: int,
    strategy: str = "auto",
    dtype_bytes: int = 8,
) -> CompressionPlan:
    """Binary-search the largest global rate whose plan fits the budget.

    Parameters
    ----------
    stats:
        Per-table statistics (any order; the plan is sorted by
        ``table_idx`` and independent of input permutation).
    embedding_dim:
        Model embedding dimension (all tables share it).
    budget_bytes:
        Global byte budget over every table's ``memory_bytes()``.
    strategy:
        ``"auto"`` (per-table choice) or a forced strategy from
        :data:`COMPRESS_STRATEGIES` (minus ``dense`` — use a plain
        dense model for that).
    dtype_bytes:
        Float itemsize the tables will train at (8 = float64
        reference).
    """
    if strategy != "auto" and strategy not in COMPRESS_STRATEGIES:
        raise ValueError(
            f"strategy must be 'auto' or one of {COMPRESS_STRATEGIES}, "
            f"got {strategy!r}"
        )
    if budget_bytes < 1:
        raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
    if embedding_dim < 1:
        raise ValueError(
            f"embedding_dim must be >= 1, got {embedding_dim}"
        )
    ordered = sorted(stats, key=lambda s: s.table_idx)
    if len({s.table_idx for s in ordered}) != len(ordered):
        raise ValueError("duplicate table_idx in stats")

    def total_at(rate: float) -> int:
        return sum(
            p.memory_bytes
            for p in _plan_at_rate(
                ordered, embedding_dim, rate, strategy, dtype_bytes
            )
        )

    if total_at(1.0) <= budget_bytes:
        best_rate = 1.0
    elif total_at(0.0) > budget_bytes:
        # Even minimal parameters bust the budget: emit the minimal
        # plan and let the caller see feasible == False.
        best_rate = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(_RATE_ITERS):
            mid = (lo + hi) / 2.0
            if total_at(mid) <= budget_bytes:
                lo = mid
            else:
                hi = mid
        best_rate = lo
    tables = _plan_at_rate(
        ordered, embedding_dim, best_rate, strategy, dtype_bytes
    )
    return CompressionPlan(
        budget_bytes=int(budget_bytes),
        embedding_dim=int(embedding_dim),
        dtype_bytes=int(dtype_bytes),
        rate=best_rate,
        tables=tuple(tables),
    )


def build_bag_from_plan(
    entry: TablePlan,
    embedding_dim: int,
    seed: RngLike = 0,
    dtype: DTypeLike = np.float64,
) -> EmbeddingBagBase:
    """Construct the bag a :class:`TablePlan` describes.

    The planner's searched parameters are the bag constructors' own
    keywords, so a plan entry is already a (partial) spec.
    """
    spec = CompressionSpec.create(
        _PLAN_KINDS.get(entry.strategy, entry.strategy),
        entry.num_rows,
        embedding_dim,
        entry.param_dict(),
    )
    return build_bag_from_spec(spec, seed=seed, dtype=dtype)
