"""Tests for the serving model view and the single-replica server.

The run-loop cases drive the one serving engine
(:class:`~repro.serving.fleet.ServingFleet`) at ``num_replicas=1``: a
single server *is* the one-replica fleet, with
``AdmissionConfig.max_in_flight`` as its worker-pool depth.
"""

import numpy as np
import pytest

from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.inference import StaleCacheError
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.degradation import DegradationPolicy
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.requests import RequestGenerator, coalesce_requests
from repro.serving.router import AdmissionConfig
from repro.serving.server import (
    ServiceTimeModel,
    ServingModel,
    replay_batches,
)
from repro.serving.snapshot import ModelSnapshot

SPEC = criteo_kaggle_like(scale=3e-5)
CFG = DLRMConfig.from_dataset(
    SPEC, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
    bottom_mlp=(16,), top_mlp=(16,),
)


@pytest.fixture(scope="module")
def generator():
    return RequestGenerator(SPEC, rate=2000.0, seed=1)


@pytest.fixture(scope="module")
def requests(generator):
    return generator.generate(120)


def _hot(generator, coverage):
    return {
        t: generator.hot_rows(t, coverage) for t in range(SPEC.num_sparse)
    }


def _server(
    hot_rows=None,
    policy=None,
    num_workers=1,
    service_time=None,
    snapshot=None,
    **config,
):
    """A single server: the one-replica fleet over a seed-0 model."""
    if snapshot is None:
        snapshot = ModelSnapshot.from_model(DLRM(CFG, seed=0), version=0)
    return ServingFleet(
        snapshot,
        hot_rows=hot_rows,
        config=FleetConfig(
            num_replicas=1,
            batching=policy or BatchingPolicy(),
            admission=AdmissionConfig(max_in_flight=num_workers),
            **config,
        ),
        service_time=service_time,
    )


class TestServiceTimeModel:
    def test_duration_composition(self):
        model = ServiceTimeModel(
            base=1.0, per_sample=0.1, per_hot=0.01, per_cold=0.5
        )
        assert model.duration(4, hot=2, cold=3) == pytest.approx(
            1.0 + 0.4 + 0.02 + 1.5
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(base=-1.0)

    def test_cold_lookups_cost_more(self):
        model = ServiceTimeModel()
        assert model.duration(8, 0, 8) > model.duration(8, 8, 0)


class TestServingModel:
    def test_predictions_match_plain_model(self, generator, requests):
        model = DLRM(CFG, seed=0)
        serving = ServingModel(model, hot_rows=_hot(generator, 0.2))
        batch = coalesce_requests(requests[:16])
        np.testing.assert_allclose(
            serving.predict_proba(batch), model.predict_proba(batch),
            atol=1e-12,
        )

    def test_no_cache_is_bitwise_model(self, requests):
        model = DLRM(CFG, seed=0)
        serving = ServingModel(model)
        batch = coalesce_requests(requests[:8])
        np.testing.assert_array_equal(
            serving.predict_proba(batch), model.predict_proba(batch)
        )

    def test_cache_accounting(self, generator, requests):
        model = DLRM(CFG, seed=0)
        hot_rows = _hot(generator, 0.3)
        serving = ServingModel(model, hot_rows=hot_rows)
        batch = coalesce_requests(requests[:16])
        serving.predict_proba(batch)
        hot, cold = serving.lookup_counts(batch)
        cached = list(serving._cached_tables)
        assert cached  # the 0.3-coverage map caches some compressed arm
        assert hot + cold == sum(batch.sparse_indices[t].size for t in cached)
        assert hot == sum(
            int(np.isin(batch.sparse_indices[t], hot_rows[t]).sum())
            for t in cached
        )
        assert 0 < hot <= hot + cold
        assert serving.num_hot_rows > 0
        assert serving.cache_nbytes > 0

    def test_hot_rows_on_dense_table_ignored(self, generator, requests):
        # dense lookups are already gathers: a coverage map spanning a
        # mixed dense/TT model must not wrap (or count) dense tables
        dense_cfg = DLRMConfig.from_dataset(
            SPEC, embedding_dim=8, backend=EmbeddingBackend.DENSE,
            tt_rank=8, bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(dense_cfg, seed=0)
        serving = ServingModel(model, hot_rows={0: np.array([0, 1])})
        assert serving.cached_lookup is None
        batch = coalesce_requests(requests[:4])
        np.testing.assert_array_equal(
            serving.predict_proba(batch), model.predict_proba(batch)
        )

    def test_training_under_live_view_raises(self, generator, requests):
        # The staleness satellite end to end: training the served model
        # without a refresh must fail loudly, not serve stale rows.
        from repro.data.dataloader import SyntheticClickLog

        model = DLRM(CFG, seed=0)
        serving = ServingModel(model, hot_rows=_hot(generator, 0.2))
        log = SyntheticClickLog(SPEC, batch_size=16, seed=0)
        model.train_step(log.batch(0), lr=0.1)
        with pytest.raises(StaleCacheError):
            serving.predict_proba(coalesce_requests(requests[:4]))
        serving.refresh()
        serving.predict_proba(coalesce_requests(requests[:4]))


class TestSingleReplicaServer:
    def test_all_requests_served(self, generator, requests):
        server = _server(
            _hot(generator, 0.1),
            policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
            num_workers=2,
        )
        outcome = server.run(requests)
        assert outcome.report.completed == len(requests)
        assert outcome.report.rejected == 0
        assert outcome.unaccounted == 0
        served_ids = sorted(
            i for b in outcome.served_batches for i in b.request_ids
        )
        assert served_ids == [r.request_id for r in requests]

    def test_bit_reproducible(self, generator, requests):
        def run():
            return _server(
                _hot(generator, 0.1),
                policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
                num_workers=2,
            ).run(requests)

        a, b = run(), run()
        assert len(a.served_batches) == len(b.served_batches)
        for ra, rb in zip(a.results, b.results):
            assert ra == rb

    def test_latencies_positive_and_consistent(self, generator, requests):
        outcome = _server(
            _hot(generator, 0.1),
            policy=BatchingPolicy(max_batch_size=8, max_wait=1e-3),
        ).run(requests)
        for result in outcome.results:
            assert result.latency > 0.0
        report = outcome.report
        assert 0.0 < report.latency_p50 <= report.latency_p99
        assert report.latency_p99 <= report.latency_max

    def test_single_request_batches_when_batching_disabled(
        self, generator, requests
    ):
        outcome = _server(
            policy=BatchingPolicy(max_batch_size=1, max_wait=0.0),
            num_workers=4,
        ).run(requests[:30])
        assert all(b.size == 1 for b in outcome.served_batches)

    def test_overload_sheds_requests(self, generator, requests):
        # one slow worker behind a tiny pending queue and a tiny batch
        # queue: admission control must kick in at the front door.  The
        # SLO is out of reach and the batches finish inside the stuck
        # timeout, so neither breaker nor watchdog is in the picture.
        outcome = _server(
            policy=BatchingPolicy(
                max_batch_size=2, max_wait=0.0, queue_capacity=2
            ),
            service_time=ServiceTimeModel(base=0.02),
            degradation=DegradationPolicy(slo_target=1e3),
            queue_capacity=1,
        ).run(requests[:40])
        assert outcome.report.rejected > 0
        assert not outcome.shed_ids
        assert outcome.report.rejected == len(outcome.rejected_ids)
        assert outcome.report.completed + outcome.report.rejected == 40
        assert set(outcome.rejected_ids).isdisjoint(
            i for b in outcome.served_batches for i in b.request_ids
        )

    def test_hit_rate_grows_with_coverage(self, generator, requests):
        def hit_rate(coverage):
            outcome = _server(
                _hot(generator, coverage),
                policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
            ).run(requests)
            return outcome.report.cache_hit_rate

        r0, r1, r2 = hit_rate(0.01), hit_rate(0.1), hit_rate(0.5)
        assert r0 < r1 < r2

    def test_swap_attributes_versions(self, generator, requests):
        snapshot = ModelSnapshot.from_model(DLRM(CFG, seed=0), version=5)
        server = _server(
            _hot(generator, 0.1),
            policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
        )
        midpoint = requests[len(requests) // 2].arrival_time
        server.schedule_swap(midpoint, snapshot)
        outcome = server.run(requests)
        versions = outcome.report.requests_per_version
        assert set(versions) == {0, 5}
        assert versions[0] > 0 and versions[5] > 0
        assert outcome.final_version == 5
        (swap,) = outcome.swaps
        assert swap.started_at == midpoint
        # the one replica drains its in-flight batch, then installs
        ((replica_id, installed_at),) = swap.replica_times
        assert replica_id == 0 and installed_at >= midpoint
        assert swap.completed and swap.dropped_in_flight == 0

    def test_replay_is_bitwise_identical(self, generator, requests):
        snapshot = ModelSnapshot.from_model(DLRM(CFG, seed=0), version=0)
        hot = _hot(generator, 0.1)
        outcome = _server(
            hot,
            policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
            num_workers=2,
            snapshot=snapshot,
        ).run(requests)
        offline = replay_batches(
            ServingModel(snapshot.materialize(), hot_rows=hot),
            outcome.served_batches,
        )
        online = outcome.predictions_by_request()
        assert online == offline

    def test_invalid_worker_count(self, generator):
        with pytest.raises(ValueError):
            _server(num_workers=0)

    def test_negative_swap_time_rejected(self):
        server = _server()
        with pytest.raises(ValueError):
            server.schedule_swap(
                -1.0, ModelSnapshot.from_model(DLRM(CFG, seed=0))
            )

    def test_empty_stream(self):
        outcome = _server().run([])
        assert outcome.report.completed == 0


class TestSwapVersionMonotonicity:
    """Interleaved swap schedules must never roll the served version back.

    Once a snapshot version is acknowledged (served), any older-or-equal
    snapshot arriving later is stale and must be rejected, not
    installed — otherwise a recycled version number would stamp stale
    predictions as fresh.
    """

    def _server(self, generator):
        return _server(
            _hot(generator, 0.1),
            policy=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
        )

    def test_stale_snapshot_rejected_after_newer_acknowledged(
        self, generator, requests
    ):
        server = self._server(generator)
        snap_v3 = ModelSnapshot.from_model(DLRM(CFG, seed=3), version=3)
        snap_v1 = ModelSnapshot.from_model(DLRM(CFG, seed=1), version=1)
        t1 = requests[len(requests) // 3].arrival_time
        t2 = requests[2 * len(requests) // 3].arrival_time
        server.schedule_swap(t1, snap_v3)
        server.schedule_swap(t2, snap_v1)  # stale: v1 after v3 acknowledged
        outcome = server.run(requests)
        assert outcome.final_version == 3
        assert outcome.stale_swaps_rejected == 1
        assert len(outcome.swaps) == 1
        # no request is ever stamped with the stale version
        assert all(r.model_version in (0, 3) for r in outcome.results)

    def test_equal_version_reoffer_is_stale(self, generator, requests):
        server = self._server(generator)
        snap_a = ModelSnapshot.from_model(DLRM(CFG, seed=4), version=2)
        snap_b = ModelSnapshot.from_model(DLRM(CFG, seed=5), version=2)
        t1 = requests[len(requests) // 3].arrival_time
        t2 = requests[2 * len(requests) // 3].arrival_time
        server.schedule_swap(t1, snap_a)
        server.schedule_swap(t2, snap_b)  # same counter: must not install
        outcome = server.run(requests)
        assert outcome.final_version == 2
        assert outcome.stale_swaps_rejected == 1
        assert len(outcome.swaps) == 1

    def test_versions_monotone_along_request_timeline(
        self, generator, requests
    ):
        server = self._server(generator)
        times = [
            requests[len(requests) // 4].arrival_time,
            requests[len(requests) // 2].arrival_time,
            requests[3 * len(requests) // 4].arrival_time,
        ]
        # out-of-order schedule calls; the run applies them by time
        server.schedule_swap(times[2], ModelSnapshot.from_model(
            DLRM(CFG, seed=8), version=9))
        server.schedule_swap(times[0], ModelSnapshot.from_model(
            DLRM(CFG, seed=6), version=4))
        server.schedule_swap(times[1], ModelSnapshot.from_model(
            DLRM(CFG, seed=7), version=7))
        outcome = server.run(requests)
        assert outcome.final_version == 9
        ordered = sorted(outcome.served_batches, key=lambda b: b.start_time)
        versions = [b.model_version for b in ordered]
        assert versions == sorted(versions)  # never rolls back
        assert outcome.stale_swaps_rejected == 0
