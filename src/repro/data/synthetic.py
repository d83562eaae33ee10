"""Power-law index samplers for synthetic click logs.

Real DLRM sparse features follow a "power-law" access distribution
(paper §II-C, Figure 4a): rank-``r`` popularity ``p(r) ~ (r+1)^-alpha``.
Two samplers are provided:

* :class:`ZipfSampler` — exact discrete Zipf sampling via inverse-CDF
  lookup for tables that fit a cumulative array, with an analytic
  continuous approximation for very large tables (40M-row Figure 13
  scale) where materializing the CDF would defeat the purpose.
* :class:`ClusteredZipfSampler` — adds *temporal locality*: each batch
  draws a fraction of its indices from a small batch-specific cluster
  of related rows (users viewing related content in one time window,
  §IV-A), the signal index reordering exploits.

Both scatter popularity ranks through a fixed random permutation so
popular rows are spread across the id space as in real datasets (raw
categorical ids carry no frequency ordering) — without this, index
reordering would have nothing to do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "zipf_probabilities",
    "analytic_hot_mass",
    "ZipfSampler",
    "ClusteredZipfSampler",
]

# Above this row count the exact CDF array (8 bytes/row) is replaced by
# the analytic continuous inverse.
_EXACT_CDF_LIMIT = 4_000_000


def zipf_probabilities(num_rows: int, alpha: float) -> np.ndarray:
    """Exact normalized Zipf pmf over ranks ``0..num_rows-1``.

    ``p(r) = (r+1)^-alpha / H``, where ``H`` generalizes the harmonic
    number.  Only usable for table sizes where an ``O(num_rows)`` array
    is acceptable.
    """
    check_positive(num_rows, "num_rows")
    check_positive(alpha, "alpha", strict=False)
    # float64 on purpose: a float32 Zipf CDF would change which ids are sampled.
    ranks = np.arange(1, num_rows + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def analytic_hot_mass(num_rows: int, alpha: float, hot_fraction: float) -> float:
    """Expected fraction of accesses landing in the hottest rows.

    The "hot-set mass" a :class:`~repro.reorder.stats.TableStats` would
    converge to over an infinite access stream: the Zipf CDF evaluated
    at ``ceil(hot_fraction * num_rows)`` ranks.  Uses the exact pmf for
    tables that fit a CDF array and the continuous power-law integral
    (the same approximation :meth:`ZipfSampler._analytic_inverse`
    samples from) for Figure-13-scale tables.
    """
    check_positive(num_rows, "num_rows")
    check_positive(alpha, "alpha", strict=False)
    check_probability(hot_fraction, "hot_fraction")
    hot_rows = int(np.ceil(hot_fraction * num_rows))
    if hot_rows <= 0:
        return 0.0
    if hot_rows >= num_rows:
        return 1.0
    if num_rows <= _EXACT_CDF_LIMIT:
        probs = zipf_probabilities(num_rows, alpha)
        return float(probs[:hot_rows].sum())
    # Continuous-support approximation: mass(m) = h(m+1) / h(N+1) with
    # h(x) the integral of t^-alpha over [1, x].
    def h(x: float) -> float:
        if abs(alpha - 1.0) < 1e-9:
            return float(np.log(x))
        return float((x ** (1.0 - alpha) - 1.0) / (1.0 - alpha))

    return h(hot_rows + 1.0) / h(num_rows + 1.0)


class ZipfSampler:
    """Sample row indices with Zipf-distributed popularity.

    Parameters
    ----------
    num_rows:
        Table length.
    alpha:
        Skew exponent; 0 = uniform, ~1.05 matches the paper's datasets
        (their Figure 4a shows ~10% of rows covering >90% of accesses).
    scatter:
        Permute ranks to random row ids (True matches real data).
    seed:
        RNG for the scatter permutation (sampling draws use the
        generator passed to :meth:`sample`).
    """

    def __init__(
        self,
        num_rows: int,
        alpha: float = 1.05,
        scatter: bool = True,
        seed: RngLike = 0,
    ) -> None:
        check_positive(num_rows, "num_rows")
        check_positive(alpha, "alpha", strict=False)
        self.num_rows = int(num_rows)
        self.alpha = float(alpha)
        rng = ensure_rng(seed)
        self._exact = self.num_rows <= _EXACT_CDF_LIMIT
        if self._exact:
            self._cdf = np.cumsum(zipf_probabilities(self.num_rows, alpha))
            self._cdf[-1] = 1.0  # guard against fp round-off
        else:
            self._cdf = None
        if scatter:
            self._rank_to_row: Optional[np.ndarray] = rng.permutation(
                self.num_rows
            ).astype(np.int64)
        else:
            self._rank_to_row = None

    def sample_ranks(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw popularity *ranks* (0 = most popular)."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        u = rng.random(size)
        if self._exact:
            ranks = np.searchsorted(self._cdf, u, side="left")
        else:
            ranks = self._analytic_inverse(u)
        return np.minimum(ranks, self.num_rows - 1).astype(np.int64)

    def _analytic_inverse(self, u: np.ndarray) -> np.ndarray:
        """Continuous power-law inverse CDF (large-table approximation).

        Integrating ``x^-alpha`` over ``[1, N+1]`` and inverting gives a
        bounded-support Pareto; accurate to within one rank for large
        ``N``, which is all the skew statistics require.
        """
        n = float(self.num_rows)
        if abs(self.alpha - 1.0) < 1e-9:
            x = np.power(n + 1.0, u)
        else:
            one_minus = 1.0 - self.alpha
            x = np.power(
                1.0 + u * (np.power(n + 1.0, one_minus) - 1.0), 1.0 / one_minus
            )
        return np.floor(x - 1.0).astype(np.int64)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw row *indices* (ranks scattered through the permutation)."""
        ranks = self.sample_ranks(size, rng)
        if self._rank_to_row is None:
            return ranks
        return self._rank_to_row[ranks]

    def top_rows(self, count: int) -> np.ndarray:
        """Row ids of the ``count`` most popular rows, best first.

        The profiling oracle for serving-time hot-row caches: combined
        with :meth:`rows_covering` it sizes and fills a
        :class:`~repro.embeddings.inference.HotRowCachedLookup` without
        an observation pass.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        count = min(count, self.num_rows)
        if self._rank_to_row is None:
            return np.arange(count, dtype=np.int64)
        return self._rank_to_row[:count].copy()

    def rows_covering(self, fraction: float) -> int:
        """Smallest number of top rows covering ``fraction`` of accesses.

        Used to size FAE's hot-row GPU cache and to reproduce the
        cumulative-access curves of Figure 4a.  Requires the exact CDF.
        """
        check_probability(fraction, "fraction")
        if not self._exact:
            raise ValueError("rows_covering requires an exact-CDF sampler")
        return int(np.searchsorted(self._cdf, fraction, side="left")) + 1

    def hot_mass(self, hot_fraction: float) -> float:
        """Fraction of accesses expected to hit the hottest rows.

        The analytic counterpart of the measured
        :class:`~repro.reorder.stats.TableStats` hot-set mass; the
        placement planner accepts either.
        """
        return analytic_hot_mass(self.num_rows, self.alpha, hot_fraction)


class ClusteredZipfSampler:
    """Zipf sampling with batch-level temporal clustering.

    Each batch is assigned a latent *topic*: a contiguous window of
    popularity ranks.  With probability ``locality`` an index is drawn
    from the topic window (re-skewed Zipf within the window); otherwise
    it falls back to the global Zipf.  ``locality=0`` reduces exactly
    to :class:`ZipfSampler`.

    Parameters
    ----------
    num_rows, alpha, scatter, seed:
        As for :class:`ZipfSampler`.
    locality:
        Probability of drawing from the batch topic window.
    cluster_size:
        Width of the topic window in ranks.
    """

    def __init__(
        self,
        num_rows: int,
        alpha: float = 1.05,
        locality: float = 0.5,
        cluster_size: int = 256,
        scatter: bool = True,
        seed: RngLike = 0,
    ) -> None:
        check_probability(locality, "locality")
        check_positive(cluster_size, "cluster_size")
        self.base = ZipfSampler(num_rows, alpha, scatter=scatter, seed=seed)
        self.locality = float(locality)
        self.cluster_size = min(int(cluster_size), int(num_rows))

    @property
    def num_rows(self) -> int:
        return self.base.num_rows

    def sample_batch(
        self, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one batch's worth of indices with a shared topic."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        global_ranks = self.base.sample_ranks(size, rng)
        if self.locality <= 0.0 or size == 0:
            ranks = global_ranks
        else:
            # Topic anchor itself is Zipf-distributed: popular regions
            # are popular topics.
            anchor = int(self.base.sample_ranks(1, rng)[0])
            anchor = min(anchor, self.num_rows - self.cluster_size)
            local = anchor + rng.integers(0, self.cluster_size, size=size)
            use_local = rng.random(size) < self.locality
            ranks = np.where(use_local, local, global_ranks)
        ranks = np.minimum(ranks, self.num_rows - 1)
        if self.base._rank_to_row is None:
            return ranks.astype(np.int64)
        return self.base._rank_to_row[ranks]
