"""Tests for wall-clock measurement helpers."""

import time

import numpy as np
import pytest

from repro.utils.timer import (
    Timer,
    measure_median,
    percentiles,
)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.002)
        with t:
            time.sleep(0.002)
        assert t.elapsed >= 0.004
        assert len(t.laps) == 2

    def test_mean_and_median(self):
        t = Timer()
        t.laps = [0.1, 0.2, 0.9]
        t.elapsed = sum(t.laps)
        assert t.mean == pytest.approx(0.4)
        assert t.median == pytest.approx(0.2)

    def test_median_even_count(self):
        t = Timer()
        t.laps = [0.1, 0.2, 0.3, 0.4]
        assert t.median == pytest.approx(0.25)

    def test_empty(self):
        t = Timer()
        assert t.mean == 0.0
        assert t.median == 0.0

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0
        assert t.laps == []


class TestMeasureMedian:
    def test_positive(self):
        result = measure_median(lambda: sum(range(100)), repeats=3, warmup=1)
        assert result > 0

    def test_counts_calls(self):
        calls = []
        measure_median(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            measure_median(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure_median(lambda: None, warmup=-1)


class TestPercentiles:
    def test_matches_numpy_default_interpolation(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(1.0, size=257).tolist()
        out = percentiles(samples)
        for q in (50.0, 95.0, 99.0):
            assert out[q] == pytest.approx(np.percentile(samples, q))

    def test_single_sample(self):
        assert percentiles([3.0]) == {50.0: 3.0, 95.0: 3.0, 99.0: 3.0}

    def test_unsorted_input(self):
        assert percentiles([4.0, 1.0, 3.0, 2.0], qs=(50.0,))[50.0] == 2.5

    def test_custom_quantiles(self):
        out = percentiles([1.0, 2.0, 3.0], qs=(0.0, 100.0))
        assert out == {0.0: 1.0, 100.0: 3.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentiles([])

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentiles([1.0], qs=(101.0,))
