"""Tests for the breaker-gated serving degradation ladder.

Driven on the one-replica fleet: healthy, degraded (stale fallback)
and shed are decided in :mod:`repro.serving.fleet`.
"""

import pytest

from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.circuit import BreakerConfig, BreakerState
from repro.resilience.degradation import DegradationPolicy
from repro.resilience.faults import FaultKind, FaultPlan, FaultSite, FaultSpec
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.requests import RequestGenerator
from repro.serving.snapshot import ModelSnapshot

NUM_REQUESTS = 600

POLICY = DegradationPolicy(
    slo_target=5e-3,
    max_staleness=10.0,
    breaker=BreakerConfig(
        failure_threshold=3, cooldown=0.02, half_open_successes=2,
    ),
)

SLOWDOWN = FaultPlan(
    name="slow",
    specs=(
        FaultSpec(
            FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0,
            time=0.05, duration=0.1, factor=40.0,
        ),
    ),
)


@pytest.fixture(scope="module")
def serving_setup(harness):
    spec, _, _ = harness
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    model = DLRM(cfg, seed=3)
    generator = RequestGenerator(spec, rate=1500.0, seed=5)
    requests = generator.generate(NUM_REQUESTS)
    hot_rows = {
        t: generator.hot_rows(t, 0.3) for t in range(spec.num_sparse)
    }
    primary = ModelSnapshot.from_model(model, version=1)
    fallback = ModelSnapshot.from_model(model, version=0)
    return primary, requests, hot_rows, fallback


def _server(primary, hot_rows, injector=None, policy=POLICY):
    return ServingFleet(
        primary,
        hot_rows=hot_rows,
        config=FleetConfig(
            num_replicas=1,
            batching=BatchingPolicy(max_batch_size=16, max_wait=1e-3),
            degradation=policy,
        ),
        injector=injector,
    )


def _accounted(outcome) -> int:
    return (
        outcome.report.completed
        + len(outcome.rejected_ids)
        + len(outcome.shed_ids)
    )


class TestHealthyPath:
    def test_clean_run_stays_primary(self, serving_setup):
        primary, requests, hot_rows, fallback = serving_setup
        server = _server(primary, hot_rows)
        server.set_fallback(fallback, hot_rows=hot_rows, time=0.0)
        outcome = server.run(requests)
        (replica,) = outcome.replicas
        assert replica.fallback_batches == 0
        assert outcome.shed_ids == ()
        assert replica.breaker_transitions == ()
        assert replica.final_breaker_state is BreakerState.CLOSED
        assert _accounted(outcome) == NUM_REQUESTS
        assert all(r.model_version == 1 for r in outcome.results)


class TestDegradedPath:
    def test_slowdown_trips_breaker_and_serves_stale(self, serving_setup):
        primary, requests, hot_rows, fallback = serving_setup
        server = _server(primary, hot_rows, injector=SLOWDOWN.injector())
        server.set_fallback(fallback, hot_rows=hot_rows, time=0.0)
        outcome = server.run(requests)
        (replica,) = outcome.replicas
        assert any(
            tr.dst is BreakerState.OPEN for tr in replica.breaker_transitions
        )
        assert replica.fallback_batches > 0
        # stale answers are stamped with the fallback's version
        stale = [r for r in outcome.results if r.model_version == 0]
        assert stale
        assert 0.0 < outcome.max_fallback_age <= POLICY.max_staleness
        # the window ends mid-stream, so the breaker must heal
        assert replica.final_breaker_state is BreakerState.CLOSED
        assert _accounted(outcome) == NUM_REQUESTS

    def test_no_fallback_means_shedding(self, serving_setup):
        primary, requests, hot_rows, _ = serving_setup
        server = _server(primary, hot_rows, injector=SLOWDOWN.injector())
        outcome = server.run(requests)
        assert outcome.replicas[0].fallback_batches == 0
        assert len(outcome.shed_ids) > 0
        assert _accounted(outcome) == NUM_REQUESTS

    def test_too_stale_fallback_is_shed(self, serving_setup):
        primary, requests, hot_rows, fallback = serving_setup
        tight = DegradationPolicy(
            slo_target=POLICY.slo_target,
            max_staleness=0.01,  # snapshot at t=0 ages out before the trip
            breaker=POLICY.breaker,
        )
        server = _server(
            primary, hot_rows, injector=SLOWDOWN.injector(), policy=tight
        )
        server.set_fallback(fallback, hot_rows=hot_rows, time=0.0)
        outcome = server.run(requests)
        assert outcome.replicas[0].fallback_batches == 0
        assert len(outcome.shed_ids) > 0
        assert _accounted(outcome) == NUM_REQUESTS


class TestValidation:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(slo_target=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(max_staleness=-1.0)

    def test_fallback_time_validated(self, serving_setup):
        primary, _, hot_rows, fallback = serving_setup
        server = _server(primary, hot_rows)
        with pytest.raises(ValueError):
            server.set_fallback(fallback, time=-1.0)
