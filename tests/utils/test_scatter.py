"""Tests for the fast duplicate-safe scatter-add (``repro.backend.groups``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.optim import SparseSGD
from repro.backend.groups import group_rows, scatter_add_rows


class TestScatterAddRows:
    def test_basic(self):
        target = np.zeros((4, 2))
        scatter_add_rows(
            target, np.array([1, 3]), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        np.testing.assert_array_equal(target[1], [1.0, 2.0])
        np.testing.assert_array_equal(target[3], [3.0, 4.0])
        np.testing.assert_array_equal(target[0], [0.0, 0.0])

    def test_duplicates_accumulate(self):
        target = np.zeros((2, 1))
        scatter_add_rows(
            target, np.array([0, 0, 1]), np.array([[1.0], [2.0], [5.0]])
        )
        np.testing.assert_array_equal(target[:, 0], [3.0, 5.0])

    def test_scale_fused(self):
        target = np.ones((3, 2))
        scatter_add_rows(
            target, np.array([0, 0]), np.ones((2, 2)), scale=-0.5
        )
        np.testing.assert_array_equal(target[0], [0.0, 0.0])
        np.testing.assert_array_equal(target[1], [1.0, 1.0])

    def test_scale_without_duplicates(self):
        target = np.zeros((3, 2))
        scatter_add_rows(
            target, np.array([0, 2]), np.ones((2, 2)), scale=2.0
        )
        np.testing.assert_array_equal(target[0], [2.0, 2.0])
        np.testing.assert_array_equal(target[2], [2.0, 2.0])

    def test_empty_noop(self):
        target = np.ones((2, 2))
        scatter_add_rows(target, np.array([], dtype=np.int64), np.zeros((0, 2)))
        np.testing.assert_array_equal(target, np.ones((2, 2)))

    def test_multidimensional_rows(self):
        target = np.zeros((3, 2, 2))
        values = np.ones((2, 2, 2))
        scatter_add_rows(target, np.array([1, 1]), values)
        np.testing.assert_array_equal(target[1], 2 * np.ones((2, 2)))

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50),
        st.floats(min_value=-3.0, max_value=3.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_equivalent_to_add_at(self, indices, scale, seed):
        rng = np.random.default_rng(seed)
        idx = np.array(indices, dtype=np.int64)
        values = rng.standard_normal((idx.size, 3))
        a = rng.standard_normal((10, 3))
        b = a.copy()
        scatter_add_rows(a, idx, values, scale=scale)
        np.add.at(b, idx, scale * values)
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("rows", [3, 285, 20_000])
@pytest.mark.parametrize("scale", [1.0, -0.05])
def test_add_at_agreement_is_up_to_rounding(rows, scale):
    # Group sums are added to the row, and scaled, after the reduction,
    # so the result is np.add.at's sum in another order: equal to
    # within rounding, not bit for bit (rows=3 differs by a few ulps).
    rng = np.random.default_rng(rows)
    idx = rng.integers(0, rows, size=2048)
    values = rng.standard_normal((2048, 16))
    target = rng.standard_normal((rows, 16))
    expected = target.copy()
    np.add.at(expected, idx, scale * values)
    scatter_add_rows(target, idx, values, scale=scale)
    np.testing.assert_allclose(
        target, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
    )
    table = rng.standard_normal((rows, 16))
    reference = table.copy()
    SparseSGD(lr=0.05).step_rows(table, idx, values)
    np.add.at(reference, idx, -0.05 * values)
    np.testing.assert_allclose(
        table, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max()
    )


def _loop_segments(idx, values):
    """Every id's rows summed by a Python loop, left to right in list
    order, ids ascending: the bitwise reference for ``group_rows`` +
    ``sum_rows`` (the coalescing step and the scatter's duplicate sum)."""
    unique = np.unique(idx)
    flat = values.reshape(idx.size, -1)
    summed = np.empty((unique.size, flat.shape[1]), dtype=flat.dtype)
    for j, row_id in enumerate(unique.tolist()):
        rows = np.flatnonzero(idx == row_id)
        acc = flat[rows[0]].copy()
        for r in rows[1:].tolist():
            acc = acc + flat[r]
        summed[j] = acc
    return unique, summed


@pytest.mark.parametrize("rows", [3, 285, 20_000])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_sort_sums_are_the_two_sort_sums_bitwise(rows, dtype):
    rng = np.random.default_rng(rows)
    idx = rng.integers(0, rows, size=2048)
    values = rng.standard_normal((2048, 16)).astype(dtype)
    unique, summed = _loop_segments(idx, values)
    groups = group_rows(idx)
    np.testing.assert_array_equal(groups.ids, unique)
    np.testing.assert_array_equal(groups.sum_rows(values), summed)
    target = rng.standard_normal((rows, 16)).astype(dtype)
    expected = target.copy()
    expected[unique] += summed * dtype(-0.05)
    scatter_add_rows(target, idx, values, scale=-0.05)
    np.testing.assert_array_equal(target, expected)
