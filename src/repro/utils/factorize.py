"""Balanced integer factorization for Tensor-Train shape selection.

A TT-compressed embedding table of logical shape ``(M, N)`` requires
factorizations ``M = m_1 * m_2 * ... * m_d`` and
``N = n_1 * n_2 * ... * n_d`` (paper §II-B, Figure 3).  Compression is
best when the per-dimension factors are as balanced as possible: the
TT-core parameter count is ``sum_k R_{k-1} * m_k * n_k * R_k``, which is
minimized for near-cubic factors.

The paper (and TT-Rec before it) rounds the number of table rows up to
the nearest integer that factors nicely; :func:`suggest_tt_shapes`
implements that policy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

__all__ = [
    "prime_factors",
    "balanced_factorization",
    "ceil_balanced_factors",
    "factorize_pair",
    "suggest_tt_shapes",
]


def prime_factors(value: int) -> List[int]:
    """Return the prime factorization of ``value`` in ascending order.

    Parameters
    ----------
    value:
        Integer >= 1.  ``1`` yields an empty list.

    Examples
    --------
    >>> prime_factors(360)
    [2, 2, 2, 3, 3, 5]
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    factors: List[int] = []
    remaining = value
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return factors


def balanced_factorization(value: int, num_factors: int) -> List[int]:
    """Factor ``value`` into ``num_factors`` near-balanced integer factors.

    The factors multiply exactly to ``value`` (no padding).  Prime
    factors are greedily assigned largest-first to the currently
    smallest bucket, which is the classic LPT heuristic for multiway
    product balancing.  The result is sorted in descending order.

    Raises
    ------
    ValueError
        If ``value`` cannot be expressed as a product of
        ``num_factors`` integers each >= 1 (always possible — padding
        with 1s — so only invalid arguments raise).

    Examples
    --------
    >>> balanced_factorization(1000, 3)
    [10, 10, 10]
    >>> balanced_factorization(12, 3)
    [3, 2, 2]
    """
    if num_factors < 1:
        raise ValueError(f"num_factors must be >= 1, got {num_factors}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    buckets = [1] * num_factors
    for prime in sorted(prime_factors(value), reverse=True):
        smallest = min(range(num_factors), key=buckets.__getitem__)
        buckets[smallest] *= prime
    return sorted(buckets, reverse=True)


def ceil_balanced_factors(value: int, num_factors: int) -> List[int]:
    """Near-balanced factors whose product is >= ``value`` (ceil-cube).

    Unlike :func:`balanced_factorization` the product may exceed
    ``value``: each factor starts at the rounded ``num_factors``-th root
    and the smallest factor is bumped until the product covers the
    cardinality.  This is the rounding rule TT-Rec/Hetu use to pad a
    table's row count before factoring it (``_get_decomp_emb``), and the
    same rule sizes hash-bucket tiles and PQ codebook capacity.

    Guarantees (property-tested):

    - ``prod(result) >= value``
    - ``max(result) - min(result) <= 1`` (near-balanced)
    - ``len(result) == num_factors``, every factor >= 1
    - result sorted in descending order

    Examples
    --------
    >>> ceil_balanced_factors(1000000, 3)
    [100, 100, 100]
    >>> ceil_balanced_factors(10131227, 3)
    [217, 217, 216]
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if num_factors < 1:
        raise ValueError(f"num_factors must be >= 1, got {num_factors}")
    ideal = int(round(value ** (1.0 / num_factors)))
    factors = [max(1, ideal)] * num_factors
    while math.prod(factors) < value:
        smallest = min(range(num_factors), key=factors.__getitem__)
        factors[smallest] += 1
    return sorted(factors, reverse=True)


def factorize_pair(
    num_rows: int, embedding_dim: int, num_cores: int = 3
) -> Tuple[List[int], List[int]]:
    """Factor an embedding table shape for TT decomposition.

    Returns ``(row_shape, col_shape)`` with
    ``prod(row_shape) == num_rows`` and
    ``prod(col_shape) == embedding_dim``; both have ``num_cores``
    entries.

    The caller is responsible for padding ``num_rows`` to a value that
    factors well (see :func:`suggest_tt_shapes`); this function factors
    exactly.
    """
    row_shape = balanced_factorization(num_rows, num_cores)
    col_shape = balanced_factorization(embedding_dim, num_cores)
    return row_shape, col_shape


def _balance_score(factors: Sequence[int]) -> float:
    """Smaller is better: ratio of max factor to geometric mean."""
    gmean = math.prod(factors) ** (1.0 / len(factors))
    return max(factors) / gmean


def suggest_tt_shapes(
    num_rows: int,
    embedding_dim: int,
    num_cores: int = 3,
    max_padding_ratio: float = 0.2,
) -> Tuple[List[int], List[int], int]:
    """Choose TT factor shapes, padding the row count when beneficial.

    Real embedding-table cardinalities (e.g. Criteo's 10131227-row
    table) rarely factor into balanced triples.  TT-Rec and EL-Rec both
    round the row count up to a near value with a balanced
    factorization; the padded rows are never indexed.

    Parameters
    ----------
    num_rows, embedding_dim:
        Logical table shape.  ``embedding_dim`` must factor exactly
        (it is chosen by the modeler, typically a power of two).
    num_cores:
        Number of TT cores ``d``.
    max_padding_ratio:
        Upper bound on ``(padded_rows - num_rows) / num_rows``.

    Returns
    -------
    (row_shape, col_shape, padded_rows)
        ``prod(row_shape) == padded_rows >= num_rows``.

    Examples
    --------
    >>> rows, cols, padded = suggest_tt_shapes(1000000, 64)
    >>> padded >= 1000000 and len(rows) == len(cols) == 3
    True
    """
    row_shape, col_shape, padded_rows = _suggest_tt_shapes(
        num_rows, embedding_dim, num_cores, max_padding_ratio
    )
    return list(row_shape), list(col_shape), padded_rows


@lru_cache(maxsize=4096)
def _suggest_tt_shapes(
    num_rows: int,
    embedding_dim: int,
    num_cores: int,
    max_padding_ratio: float,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """The scan behind :func:`suggest_tt_shapes`, memoised.

    It costs tens of milliseconds on a 10^7-row table and the table
    planner's rank search asks for the same table's shapes hundreds of
    times; the cache holds immutable tuples, the public function hands
    every caller fresh lists.
    """
    if num_rows < 1 or embedding_dim < 1:
        raise ValueError("num_rows and embedding_dim must be >= 1")
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if max_padding_ratio < 0:
        raise ValueError("max_padding_ratio must be >= 0")

    col_shape = balanced_factorization(embedding_dim, num_cores)

    # The ideal per-dimension factor is the d-th root of num_rows; any
    # padded candidate with all factors <= ceil(root)+1 is close to
    # balanced.  Scan padded row counts and keep the best-balanced one.
    best: Tuple[float, int, List[int]] | None = None
    limit = max(num_rows + 1, int(num_rows * (1.0 + max_padding_ratio)) + 1)
    # Fast path: build a candidate directly from ceil-balanced factors.
    direct = ceil_balanced_factors(num_rows, num_cores)
    direct_rows = math.prod(direct)
    if direct_rows <= limit:
        best = (_balance_score(direct), direct_rows, direct)

    step = max(1, num_rows // 4096)
    for padded in range(num_rows, limit, step):
        factors = balanced_factorization(padded, num_cores)
        score = _balance_score(factors)
        if best is None or (score, padded) < (best[0], best[1]):
            best = (score, padded, factors)
        if score < 1.05:
            break
    assert best is not None
    _, padded_rows, row_shape = best
    return tuple(row_shape), tuple(col_shape), padded_rows
