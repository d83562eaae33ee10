"""Wall-clock measurement helpers for kernels and benchmarks.

The guide for this domain is explicit: *no optimization without
measuring*.  These helpers wrap ``time.perf_counter`` with warmup and
median-of-repeats semantics so kernel comparisons (Eff-TT vs TT-Rec
lookup, Figures 14, 17, 18) are robust to scheduler noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["Timer", "measure_median", "percentiles"]


def percentiles(
    samples: Sequence[float],
    qs: Sequence[float] = (50.0, 95.0, 99.0),
) -> Dict[float, float]:
    """Percentiles of a sample set by linear interpolation.

    Matches ``numpy.percentile``'s default (``linear``) method so
    benches and serving metrics report identical numbers regardless of
    which path computed them.  Raises on an empty sample set — an SLO
    over zero requests is meaningless and should fail loudly.

    Examples
    --------
    >>> percentiles([1.0, 2.0, 3.0, 4.0], qs=(50,))
    {50: 2.5}
    """
    if not samples:
        raise ValueError("percentiles of an empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[float, float] = {}
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        pos = (q / 100.0) * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out[q] = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
    return out


@dataclass
class Timer:
    """Accumulating context-manager timer.

    Examples
    --------
    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed > 0
    True
    """

    elapsed: float = 0.0
    laps: List[float] = field(default_factory=list)
    _start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None, "Timer.__exit__ without __enter__"
        lap = time.perf_counter() - self._start
        self.laps.append(lap)
        self.elapsed += lap
        self._start = None

    def reset(self) -> None:
        self.elapsed = 0.0
        self.laps.clear()
        self._start = None

    @property
    def mean(self) -> float:
        """Mean lap time in seconds (0.0 when no laps recorded)."""
        return self.elapsed / len(self.laps) if self.laps else 0.0

    @property
    def median(self) -> float:
        """Median lap time in seconds (0.0 when no laps recorded)."""
        if not self.laps:
            return 0.0
        ordered = sorted(self.laps)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


def measure_median(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs.

    ``warmup`` un-timed calls run first so one-time costs (allocator
    growth, cache population) do not pollute the measurement.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    timer = Timer()
    for _ in range(repeats):
        with timer:
            fn()
    return timer.median
