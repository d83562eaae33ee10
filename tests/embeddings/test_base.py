"""Tests for offset normalization and segment pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.base import (
    bag_boundaries,
    expand_bag_ids,
    normalize_offsets,
    pool_bags,
    segment_sum,
)


class TestNormalizeOffsets:
    def test_pytorch_form(self):
        out = normalize_offsets(np.array([0, 2, 5]), 7)
        np.testing.assert_array_equal(out, [0, 2, 5, 7])

    def test_boundary_form_passthrough(self):
        out = normalize_offsets(np.array([0, 2, 5]), 5)
        np.testing.assert_array_equal(out, [0, 2, 5])

    def test_empty_bags_allowed(self):
        out = normalize_offsets(np.array([0, 2, 2, 4]), 4)
        np.testing.assert_array_equal(out, [0, 2, 2, 4])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            normalize_offsets(np.array([1, 3]), 5)

    def test_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            normalize_offsets(np.array([0, 3, 2]), 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_offsets(np.array([], dtype=np.int64), 3)


def loop_pool(values, boundaries):
    """Each bag's rows added left to right by a Python loop; empty bags 0."""
    out = np.zeros((boundaries.size - 1,) + values.shape[1:], dtype=values.dtype)
    for b in range(boundaries.size - 1):
        lo, hi = int(boundaries[b]), int(boundaries[b + 1])
        if hi > lo:
            acc = values[lo].copy()
            for r in range(lo + 1, hi):
                acc = acc + values[r]
            out[b] = acc
    return out


class TestSegmentSum:
    def test_basic(self):
        values = np.arange(8.0).reshape(4, 2)
        out = segment_sum(values, np.array([0, 2, 4]))
        np.testing.assert_array_equal(out, [[2.0, 4.0], [10.0, 12.0]])

    def test_empty_segment_is_zero(self):
        values = np.ones((3, 2))
        out = segment_sum(values, np.array([0, 0, 3]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_array_equal(out[1], [3.0, 3.0])

    def test_all_empty(self):
        out = segment_sum(np.zeros((0, 4)), np.array([0, 0, 0]))
        assert out.shape == (2, 4)
        assert np.all(out == 0)

    def test_single_element_bags(self):
        values = np.arange(6.0).reshape(3, 2)
        out = segment_sum(values, np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(out, values)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_loop(self, bag_sizes):
        boundaries = np.concatenate([[0], np.cumsum(bag_sizes)]).astype(np.int64)
        total = int(boundaries[-1])
        rng = np.random.default_rng(0)
        values = rng.standard_normal((total, 3))
        fast = segment_sum(values, boundaries)
        slow = np.stack(
            [
                values[boundaries[b] : boundaries[b + 1]].sum(axis=0)
                for b in range(len(bag_sizes))
            ]
        )
        np.testing.assert_allclose(fast, slow)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_empty_bag_is_the_scatter_path_bit_for_bit(self, dtype):
        # With no empty bag the bag sums are returned as they are; they
        # must be what zero-fill + masked scatter of the same left-to-right
        # sums produces.
        rng = np.random.default_rng(1)
        boundaries = np.array([0, 3, 4, 9, 11], dtype=np.int64)
        values = rng.standard_normal((11, 5)).astype(dtype)
        scattered = np.zeros((4, 5), dtype=dtype)
        scattered[np.ones(4, dtype=bool)] = loop_pool(values, boundaries)
        out = segment_sum(values, boundaries)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, scattered)

    def test_zero_bags(self):
        out = segment_sum(np.zeros((0, 3)), np.array([0], dtype=np.int64))
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "sizes",
        [
            [0, 3, 0, 0, 1, 40, 0],  # empty bags between, a long bag
            [0, 0, 0],  # zero rows
            [300, 9, 8, 7, 1],  # long bags on either side of the depth
            [2] * 50,
        ],
    )
    def test_equals_left_to_right_loop_bitwise(self, sizes, dtype):
        boundaries = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        rng = np.random.default_rng(len(sizes))
        values = rng.standard_normal((int(boundaries[-1]), 16)).astype(dtype)
        out = segment_sum(values, boundaries)
        assert out.dtype == dtype and out.shape == (len(sizes), 16)
        assert np.array_equal(out, loop_pool(values, boundaries))


class TestBagBoundaries:
    """The one detection site for bags of one."""

    @pytest.mark.parametrize(
        "offsets",
        [None, np.arange(6), np.arange(5), [0, 1, 2, 3, 4]],
        ids=["none", "boundary_form", "pytorch_form", "list"],
    )
    def test_one_index_per_bag_is_none(self, offsets):
        assert bag_boundaries(offsets, 5) is None

    @pytest.mark.parametrize(
        "offsets, expected",
        [
            ([0, 2, 3, 4], [0, 2, 3, 4, 5]),  # a bag of two
            ([0, 1, 1, 2, 3, 4], [0, 1, 1, 2, 3, 4, 5]),  # an empty bag
            ([0, 0, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]),  # 5 bags, 5 indices, not one each
            ([0], [0, 5]),  # one bag of everything
        ],
    )
    def test_anything_else_is_boundary_form(self, offsets, expected):
        out = bag_boundaries(np.array(offsets), 5)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == np.int64

    def test_no_indices(self):
        assert bag_boundaries(None, 0) is None
        assert bag_boundaries(np.array([0]), 0) is None  # zero bags of one
        np.testing.assert_array_equal(
            bag_boundaries(np.array([0, 0, 0]), 0), [0, 0, 0]
        )

    def test_still_validates(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            bag_boundaries(np.array([0, 2, 1]), 3)
        with pytest.raises(ValueError, match="start at 0"):
            bag_boundaries(np.array([1, 2, 3]), 3)

    def test_pool_bags(self):
        rows = np.arange(8.0).reshape(4, 2)
        assert pool_bags(rows, None) is rows
        np.testing.assert_array_equal(
            pool_bags(rows, np.array([0, 3, 4])), [[6.0, 9.0], [6.0, 7.0]]
        )


class TestExpandBagIds:
    def test_basic(self):
        out = expand_bag_ids(np.array([0, 2, 2, 5]))
        np.testing.assert_array_equal(out, [0, 0, 2, 2, 2])

    def test_empty(self):
        out = expand_bag_ids(np.array([0, 0]))
        assert out.size == 0
