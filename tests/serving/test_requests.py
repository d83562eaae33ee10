"""Tests for the deterministic traffic generator and coalescing."""

import dataclasses

import numpy as np
import pytest

from repro.data.datasets import criteo_kaggle_like
from repro.serving.requests import (
    InferenceRequest,
    RequestGenerator,
    coalesce_requests,
    hot_rows_from_trace,
)
from tests.conftest import make_request

SPEC = criteo_kaggle_like(scale=3e-5)


class TestRequestGenerator:
    def test_deterministic_stream(self):
        a = RequestGenerator(SPEC, rate=100.0, seed=3).generate(20)
        b = RequestGenerator(SPEC, rate=100.0, seed=3).generate(20)
        for ra, rb in zip(a, b):
            assert ra.arrival_time == rb.arrival_time
            np.testing.assert_array_equal(ra.dense, rb.dense)
            for ia, ib in zip(ra.sparse_indices, rb.sparse_indices):
                np.testing.assert_array_equal(ia, ib)

    def test_seed_changes_stream(self):
        a = RequestGenerator(SPEC, rate=100.0, seed=0).generate(5)
        b = RequestGenerator(SPEC, rate=100.0, seed=1).generate(5)
        assert a[0].arrival_time != b[0].arrival_time

    def test_arrivals_strictly_increasing(self):
        requests = RequestGenerator(SPEC, rate=500.0, seed=0).generate(50)
        times = [r.arrival_time for r in requests]
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))

    def test_mean_rate_approximate(self):
        rate = 1000.0
        requests = RequestGenerator(SPEC, rate=rate, seed=0).generate(2000)
        span = requests[-1].arrival_time - requests[0].arrival_time
        observed = (len(requests) - 1) / span
        assert observed == pytest.approx(rate, rel=0.15)

    def test_request_shapes(self):
        request = RequestGenerator(SPEC, rate=10.0, seed=0).generate(1)[0]
        assert request.dense.shape == (SPEC.num_dense,)
        assert request.num_tables == SPEC.num_sparse
        for table, bag in zip(SPEC.tables, request.sparse_indices):
            assert bag.shape == (table.bag_size,)
            assert (0 <= bag).all() and (bag < table.num_rows).all()

    def test_a_request_holds_one_id_row(self):
        multi_hot = dataclasses.replace(
            SPEC,
            tables=tuple(
                dataclasses.replace(table, bag_size=1 + t % 3)
                for t, table in enumerate(SPEC.tables)
            ),
        )
        requests = RequestGenerator(multi_hot, rate=10.0, seed=0).generate(3)
        sizes = [table.bag_size for table in multi_hot.tables]
        for request in requests:
            assert request.ids.dtype == np.int64 and request.ids.shape == (sum(sizes),)
            assert request.bag_sizes is requests[0].bag_sizes  # one per stream
            assert request.bag_sizes.tolist() == sizes
            bags = request.sparse_indices
            assert [bag.size for bag in bags] == sizes
            np.testing.assert_array_equal(np.concatenate(bags), request.ids)
            for bag in bags:
                assert np.shares_memory(bag, request.ids)
        # nothing per table is stored: the bags are views made on access
        assert [f.name for f in dataclasses.fields(InferenceRequest)] == [
            "request_id", "arrival_time", "dense", "ids", "bag_sizes",
        ]

    def test_ids_and_their_views_are_read_only(self):
        request = RequestGenerator(SPEC, rate=10.0, seed=0).generate(2)[1]
        built = make_request(
            7, 1.0, np.zeros(2), [np.array([1, 2]), np.array([3])]
        )
        for r in (request, built):
            for array in (r.ids, r.bag_sizes, *r.sparse_indices):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        assert built.ids.tolist() == [1, 2, 3] and built.bag_sizes.tolist() == [2, 1]

    def test_replace_shares_the_ids(self):
        request = RequestGenerator(SPEC, rate=10.0, seed=0).generate(1)[0]
        moved = dataclasses.replace(request, arrival_time=0.5)
        assert moved.arrival_time == 0.5
        assert moved.ids is request.ids
        assert moved.bag_sizes is request.bag_sizes
        assert moved.dense is request.dense

    def test_zipf_skew_present(self):
        gen = RequestGenerator(SPEC, rate=10.0, seed=0)
        requests = gen.generate(300)
        # the largest table should see heavy repetition of few rows
        t = max(range(SPEC.num_sparse), key=lambda i: SPEC.tables[i].num_rows)
        ids = np.concatenate([r.sparse_indices[t] for r in requests])
        _, counts = np.unique(ids, return_counts=True)
        assert counts.max() >= 10  # a hot row dominates

    def test_hot_rows_coverage(self):
        gen = RequestGenerator(SPEC, rate=10.0, seed=0)
        t = 0
        full = gen.hot_rows(t, 1.0)
        half = gen.hot_rows(t, 0.5)
        assert full.size == SPEC.tables[t].num_rows
        assert half.size == int(SPEC.tables[t].num_rows * 0.5)
        assert set(half).issubset(set(full))
        with pytest.raises(ValueError):
            gen.hot_rows(t, 1.5)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RequestGenerator(SPEC, rate=0.0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            RequestGenerator(SPEC, rate=1.0).generate(-1)


class TestCoalesce:
    def test_round_trip_rows(self):
        requests = RequestGenerator(SPEC, rate=10.0, seed=0).generate(7)
        batch = coalesce_requests(requests)
        assert batch.batch_size == 7
        np.testing.assert_array_equal(batch.dense[3], requests[3].dense)
        for t in range(SPEC.num_sparse):
            start = batch.sparse_offsets[t][3]
            stop = batch.sparse_offsets[t][4]
            np.testing.assert_array_equal(
                batch.sparse_indices[t][start:stop],
                requests[3].sparse_indices[t],
            )

    def test_labels_zero(self):
        requests = RequestGenerator(SPEC, rate=10.0, seed=0).generate(2)
        assert (coalesce_requests(requests).labels == 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coalesce_requests([])

    def test_table_count_mismatch_rejected(self):
        requests = RequestGenerator(SPEC, rate=10.0, seed=0).generate(2)
        bad = make_request(
            request_id=99,
            arrival_time=1.0,
            dense=requests[0].dense,
            bags=requests[0].sparse_indices[:-1],
        )
        with pytest.raises(ValueError):
            coalesce_requests([requests[0], bad])


class TestHotRowsFromTrace:
    def test_most_frequent_selected(self):
        trace = [np.array([3, 3, 3, 1, 1, 7])]
        np.testing.assert_array_equal(
            hot_rows_from_trace(trace, num_rows=10, count=2), [1, 3]
        )

    def test_tie_breaks_to_lower_id(self):
        trace = [np.array([5, 2])]
        np.testing.assert_array_equal(
            hot_rows_from_trace(trace, num_rows=10, count=1), [2]
        )

    def test_count_clamped(self):
        out = hot_rows_from_trace([np.array([0])], num_rows=3, count=10)
        assert out.size == 3

    def test_zero_count(self):
        assert hot_rows_from_trace([np.array([0])], 3, 0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            hot_rows_from_trace([np.array([0])], 3, -1)
