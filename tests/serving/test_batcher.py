"""Tests for the dynamic micro-batcher and its admission control."""

import numpy as np
import pytest

from repro.serving.batcher import BatchingPolicy, MicroBatcher
from repro.serving.requests import InferenceRequest
from tests.conftest import make_request


def _request(request_id: int, arrival: float) -> InferenceRequest:
    return make_request(
        request_id=request_id,
        arrival_time=arrival,
        dense=np.zeros(2),
        bags=(np.array([0]),),
    )


class TestBatchingPolicy:
    def test_defaults_valid(self):
        BatchingPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait": -1e-3},
            {"queue_capacity": 0},
            {"max_batch_size": 64, "queue_capacity": 32},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchingPolicy(**kwargs)


class TestMicroBatcher:
    def test_size_trigger(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=3, max_wait=1.0))
        for i in range(2):
            batcher.offer(_request(i, 0.0), now=0.0)
        assert not batcher.ready(0.0)
        batcher.offer(_request(2, 0.0), now=0.0)
        assert batcher.ready(0.0)
        batch = batcher.pop_batch(0.0)
        assert batch.size == 3
        assert [r.request_id for r in batch.requests] == [0, 1, 2]

    def test_time_trigger(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=100, max_wait=0.01)
        )
        batcher.offer(_request(0, 0.0), now=0.0)
        assert not batcher.ready(0.005)
        assert batcher.ready(0.01)
        assert batcher.pop_batch(0.01).size == 1

    def test_deadline_is_oldest_request(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=100, max_wait=0.01)
        )
        assert batcher.oldest_deadline() is None
        batcher.offer(_request(0, 0.0), now=0.0)
        batcher.offer(_request(1, 0.004), now=0.004)
        assert batcher.oldest_deadline() == pytest.approx(0.01)

    def test_zero_wait_dispatches_immediately(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=8, max_wait=0.0))
        batcher.offer(_request(0, 0.5), now=0.5)
        assert batcher.ready(0.5)

    def test_pop_respects_max_batch_size(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=2, max_wait=0.0, queue_capacity=8)
        )
        for i in range(5):
            batcher.offer(_request(i, 0.0), now=0.0)
        assert batcher.pop_batch(0.0).size == 2
        assert batcher.depth == 3

    def test_admission_control_rejects_when_full(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=2, max_wait=1.0, queue_capacity=2)
        )
        assert batcher.offer(_request(0, 0.0), now=0.0)
        assert batcher.offer(_request(1, 0.0), now=0.0)
        assert not batcher.offer(_request(2, 0.0), now=0.0)
        assert batcher.admitted == 2
        assert batcher.rejected == 1

    def test_offer_before_arrival_rejected(self):
        batcher = MicroBatcher(BatchingPolicy())
        with pytest.raises(ValueError):
            batcher.offer(_request(0, 1.0), now=0.5)

    def test_force_pop_drains_partial(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=100, max_wait=10.0)
        )
        batcher.offer(_request(0, 0.0), now=0.0)
        assert batcher.pop_batch(0.0) is None
        batch = batcher.force_pop(0.0)
        assert batch.size == 1
        assert batcher.force_pop(0.0) is None

    def test_counters_and_depth(self):
        batcher = MicroBatcher(
            BatchingPolicy(max_batch_size=2, max_wait=0.0, queue_capacity=4)
        )
        for i in range(4):
            batcher.offer(_request(i, 0.0), now=0.0)
        assert batcher.max_depth == 4
        batcher.pop_batch(0.0)
        batcher.pop_batch(0.0)
        assert batcher.batches_formed == 2
        assert batcher.empty()
