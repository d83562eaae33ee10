"""``coalesce_requests`` against the per-table construction it replaced.

The one-pass coalesce must build the same :class:`Batch` as a loop that
concatenates each table's bags on its own, field for field, for any mix
of bag sizes — empty bags included — and the arrays a batch shares
between its tables must be read-only, so a recorded batch cannot change
under a replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataloader import Batch
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.requests import (
    InferenceRequest,
    RequestGenerator,
    coalesce_requests,
)
from repro.serving.server import ServingModel, replay_batches
from repro.serving.snapshot import ModelSnapshot


def per_table_coalesce(requests):
    """The per-table construction, kept as the reference."""
    num_tables = requests[0].num_tables
    sparse_indices, sparse_offsets = [], []
    for t in range(num_tables):
        bags = [r.sparse_indices[t] for r in requests]
        lengths = np.array([b.size for b in bags], dtype=np.int64)
        sparse_indices.append(np.concatenate(bags))
        offsets = np.zeros(len(bags) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        sparse_offsets.append(offsets)
    return Batch(
        dense=np.stack([r.dense for r in requests]),
        sparse_indices=sparse_indices,
        sparse_offsets=sparse_offsets,
        labels=np.zeros(len(requests)),
        batch_id=requests[0].request_id,
    )


@st.composite
def request_streams(draw):
    """A micro-batch: 1-6 tables, 1-20 requests, bags of 0-5 ids each."""
    num_tables = draw(st.integers(1, 6))
    num_requests = draw(st.integers(1, 20))
    num_dense = draw(st.integers(1, 4))
    first_id = draw(st.integers(0, 1000))
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(
        st.lists(
            st.integers(0, 5),
            min_size=num_requests * num_tables,
            max_size=num_requests * num_tables,
        )
    )
    rng = np.random.default_rng(seed)
    requests = []
    for r in range(num_requests):
        bags = tuple(
            rng.integers(0, 1000, size=sizes[r * num_tables + t], dtype=np.int64)
            for t in range(num_tables)
        )
        requests.append(
            InferenceRequest(
                request_id=first_id + r,
                arrival_time=float(r),
                dense=rng.normal(size=num_dense),
                sparse_indices=bags,
            )
        )
    return requests


def assert_same_batch(got, want):
    np.testing.assert_array_equal(got.dense, want.dense)
    assert got.dense.dtype == want.dense.dtype
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert got.batch_id == want.batch_id
    assert len(got.sparse_indices) == len(want.sparse_indices)
    assert len(got.sparse_offsets) == len(want.sparse_offsets)
    for mine, ref in zip(got.sparse_indices, want.sparse_indices):
        assert mine.dtype == np.int64 and ref.dtype == np.int64
        np.testing.assert_array_equal(mine, ref)
    for mine, ref in zip(got.sparse_offsets, want.sparse_offsets):
        assert mine.dtype == np.int64
        np.testing.assert_array_equal(mine, ref)


@given(request_streams())
@settings(max_examples=200, deadline=None)
def test_equals_per_table_construction(requests):
    assert_same_batch(coalesce_requests(requests), per_table_coalesce(requests))


@given(request_streams())
@settings(max_examples=50, deadline=None)
def test_shared_arrays_are_read_only(requests):
    batch = coalesce_requests(requests)
    for array in (*batch.sparse_indices, *batch.sparse_offsets):
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7


def test_all_bags_empty():
    requests = [
        InferenceRequest(
            i, float(i), np.zeros(2), (np.zeros(0, dtype=np.int64),) * 3
        )
        for i in range(4)
    ]
    assert_same_batch(coalesce_requests(requests), per_table_coalesce(requests))


def test_generator_stream_matches():
    spec = criteo_kaggle_like(scale=3e-5)
    requests = RequestGenerator(spec, rate=100.0, seed=4).generate(64)
    for start in range(0, 64, 17):
        chunk = requests[start : start + 17]
        assert_same_batch(coalesce_requests(chunk), per_table_coalesce(chunk))


def test_served_batches_cannot_change_under_replay():
    spec = criteo_kaggle_like(scale=3e-5)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    snapshot = ModelSnapshot.from_model(DLRM(cfg, seed=0), version=0)
    requests = RequestGenerator(spec, rate=2000.0, seed=2).generate(80)
    outcome = ServingFleet(
        snapshot,
        config=FleetConfig(
            num_replicas=1,
            batching=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
        ),
    ).run(requests)
    for served in outcome.served_batches:
        for array in (*served.batch.sparse_indices, *served.batch.sparse_offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    offline = replay_batches(
        ServingModel(snapshot.materialize()), outcome.served_batches
    )
    assert offline == outcome.predictions_by_request()
