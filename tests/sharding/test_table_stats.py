"""TableStats: measured and analytic access-distribution summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.data.synthetic import ZipfSampler, analytic_hot_mass
from repro.reorder import (
    TableStats,
    analytic_table_stats,
    measure_table_stats,
    profile_tables,
    table_stats_from_log,
)


def test_analytic_hot_mass_matches_exact_cdf():
    probs_mass = analytic_hot_mass(1000, 1.05, 0.1)
    # Exact pmf path: directly the CDF at 100 ranks.
    from repro.data.synthetic import zipf_probabilities

    expected = float(zipf_probabilities(1000, 1.05)[:100].sum())
    assert probs_mass == pytest.approx(expected)
    assert 0.5 < probs_mass < 1.0  # paper-grade skew: hot 10% dominates


def test_analytic_hot_mass_edges():
    assert analytic_hot_mass(100, 1.05, 1.0) == 1.0
    assert analytic_hot_mass(1, 1.05, 0.5) == 1.0
    # Uniform distribution: hot mass equals the hot fraction (ceil'd).
    assert analytic_hot_mass(1000, 0.0, 0.1) == pytest.approx(0.1)


def test_analytic_hot_mass_large_table_approximation():
    # Above the exact-CDF limit the continuous integral takes over;
    # it must agree with the exact value to a few percent.
    exact_scale = analytic_hot_mass(4_000_000, 1.05, 0.1)
    approx_scale = analytic_hot_mass(4_000_001, 1.05, 0.1)
    assert approx_scale == pytest.approx(exact_scale, rel=0.05)


def test_sampler_hot_mass_delegates():
    sampler = ZipfSampler(10_000, alpha=1.05, seed=0)
    assert sampler.hot_mass(0.1) == pytest.approx(
        analytic_hot_mass(10_000, 1.05, 0.1)
    )


def test_measure_table_stats_skewed_stream():
    sampler = ZipfSampler(2_000, alpha=1.05, scatter=True, seed=0)
    rng = np.random.default_rng(1)
    idx = sampler.sample(50_000, rng)
    stats = measure_table_stats(idx, num_rows=2_000, table_idx=3)
    assert stats.table_idx == 3
    assert stats.num_rows == 2_000
    assert stats.total_accesses == 50_000
    assert 0.0 < stats.unique_fraction <= 1.0
    assert stats.skewed
    # Measured skew should land in the right ballpark of the generator.
    assert 0.7 < stats.zipf_alpha < 1.4
    assert stats.hot_mass == pytest.approx(
        analytic_hot_mass(2_000, 1.05, 0.1), abs=0.1
    )


def test_measure_table_stats_uniform_stream():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 500, size=20_000)
    stats = measure_table_stats(idx, num_rows=500)
    assert not stats.skewed
    assert stats.zipf_alpha < 0.3
    assert stats.hot_mass == pytest.approx(0.1, abs=0.05)


def test_measure_table_stats_validation():
    with pytest.raises(ValueError):
        measure_table_stats(np.array([], dtype=np.int64), num_rows=10)
    with pytest.raises(ValueError):
        measure_table_stats(np.array([10]), num_rows=10)
    with pytest.raises(ValueError):
        measure_table_stats(np.array([0]), num_rows=10, hot_fraction=0.0)


def test_table_stats_from_log_matches_manual_concat():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    stats = table_stats_from_log(log, table_idx=0, num_batches=4)
    manual = np.concatenate(
        [log.batch(i).sparse_indices[0] for i in range(4)]
    )
    expected = measure_table_stats(
        manual, num_rows=spec.tables[0].num_rows, table_idx=0
    )
    assert stats == expected


def test_profile_tables_is_one_pass_over_the_log():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)

    class CountingLog:
        spec = log.spec
        calls = []

        def batch(self, i):
            self.calls.append(i)
            return log.batch(i)

    counting = CountingLog()
    profiled = profile_tables(counting, num_batches=4)
    assert counting.calls == [0, 1, 2, 3]  # not 26 tables x 4 batches
    assert profiled == [
        table_stats_from_log(log, table_idx=t, num_batches=4)
        for t in range(spec.num_sparse)
    ]
    with pytest.raises(ValueError):
        profile_tables(log, num_batches=0)


def test_analytic_table_stats_numbers_tables_in_order():
    stats = analytic_table_stats([10, 10_000])
    assert [st.table_idx for st in stats] == [0, 1]
    assert stats[1] == TableStats.from_spec(1, 10_000, 1.05)


def test_from_spec_analytic():
    stats = TableStats.from_spec(2, 10_000, 1.05)
    assert stats.total_accesses == 0
    assert stats.unique_fraction == 1.0
    assert stats.hot_rows == 1000
    assert stats.skewed


def test_table_stats_validation():
    with pytest.raises(ValueError):
        TableStats(0, 0, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        TableStats(0, 10, 1.0, 0.1, 1.5)
