"""Tests for the serving fleet (fault domains, routing, ladder, swap)."""

import math

import pytest

from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.circuit import BreakerConfig, BreakerState
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    FaultSite,
    FaultSpec,
)
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import (
    AutoscalePolicy,
    BatchingQueue,
    FleetBatch,
    FleetConfig,
    ReplicaState,
    ServingFleet,
)
from repro.serving.requests import RequestGenerator
from repro.serving.router import AdmissionConfig
from repro.serving.server import ServiceTimeModel
from repro.serving.snapshot import ModelSnapshot
from repro.resilience.degradation import DegradationPolicy
from tests.conftest import all_tt_model

SPEC = criteo_kaggle_like(scale=2e-5)
CFG = DLRMConfig.from_dataset(
    SPEC, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
    bottom_mlp=(16,), top_mlp=(16,),
)


@pytest.fixture(scope="module")
def world():
    snap_v1 = ModelSnapshot.from_model(DLRM(CFG, seed=7), version=1)
    snap_v2 = ModelSnapshot.from_model(DLRM(CFG, seed=9), version=2)
    generator = RequestGenerator(SPEC, rate=2500.0, seed=5)
    requests = generator.generate(240)
    hot_rows = {
        t: generator.hot_rows(t, 0.3) for t in range(SPEC.num_sparse)
    }
    return snap_v1, snap_v2, hot_rows, requests


def _config(num_replicas=2, **kwargs):
    defaults = dict(
        num_replicas=num_replicas,
        batching=BatchingPolicy(
            max_batch_size=8, max_wait=1e-3, queue_capacity=512,
        ),
        degradation=DegradationPolicy(slo_target=0.05),
        queue_capacity=512,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def _fleet(world, config, injector=None, service_time=None):
    snap_v1, _, hot_rows, _ = world
    return ServingFleet(
        snap_v1, hot_rows=hot_rows, config=config, injector=injector,
        service_time=service_time,
    )


#: 4 ms per batch whatever its lookups cost: every replica holds work.
BUSY = ServiceTimeModel(base=4e-3)


def _crash_plan(replica, time):
    return FaultPlan(
        name=f"crash-r{replica}",
        specs=(FaultSpec(
            FaultKind.CRASH, FaultSite.REPLICA, replica=replica, time=time,
        ),),
    )


class TestValidation:
    def test_autoscale_policy_bounds(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(low_watermark=0.9, high_watermark=0.8)

    def test_fleet_config_bounds(self):
        with pytest.raises(ValueError):
            FleetConfig(num_replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(queue_capacity=0)


class TestBatchingQueue:
    def test_put_front_bypasses_capacity_and_orders_first(self):
        q = BatchingQueue(1)
        a, b = object(), object()
        q.put(a)
        assert q.full()
        q.put_front(b)  # redirects must never be refused by the bound
        assert len(q) == 2
        assert q.get() is b
        assert q.get() is a
        assert q.redirect_puts == 1


class TestDeterminism:
    def test_identical_runs_are_bitwise(self, world):
        *_, requests = world
        first = _fleet(world, _config()).run(requests)
        second = _fleet(world, _config()).run(requests)
        assert (
            first.predictions_by_request()
            == second.predictions_by_request()
        )
        assert first.batch_compositions() == second.batch_compositions()
        assert first.queue_max_depth == second.queue_max_depth

    def test_clean_run_accounts_for_every_request(self, world):
        *_, requests = world
        outcome = _fleet(world, _config()).run(requests)
        assert len(outcome.results) == len(requests)
        assert not outcome.rejected_ids and not outcome.shed_ids
        assert outcome.unaccounted == 0
        assert len(outcome.health_history) > 0


class TestCrashFaultDomain:
    def test_kill_one_replica_is_bitwise(self, world):
        *_, requests = world
        reference = _fleet(world, _config()).run(requests)
        mid = requests[len(requests) // 2].arrival_time
        injector = _crash_plan(0, mid).injector()
        outcome = _fleet(world, _config(), injector).run(requests)
        ref = reference.predictions_by_request()
        got = outcome.predictions_by_request()
        assert all(ref[rid] == got[rid] for rid in got)
        assert outcome.replicas[0].final_state is ReplicaState.DEAD
        assert outcome.replicas[0].crash_time == mid
        assert outcome.replicas[1].final_state is ReplicaState.LIVE
        assert outcome.unaccounted == 0

    def test_crashing_the_only_replica_sheds_cleanly(self, world):
        *_, requests = world
        mid = requests[len(requests) // 2].arrival_time
        injector = _crash_plan(0, mid).injector()
        outcome = _fleet(world, _config(num_replicas=1), injector).run(
            requests
        )
        assert outcome.shed_ids  # fleet-wide outage: backlog shed
        assert outcome.unaccounted == 0
        assert (
            len(outcome.results)
            + len(outcome.rejected_ids)
            + len(outcome.shed_ids)
            == len(requests)
        )

    def test_redirect_cap_sheds_orphans(self, world):
        *_, requests = world
        mid = requests[len(requests) // 2].arrival_time
        injector = _crash_plan(0, mid).injector()
        config = _config(
            admission=AdmissionConfig(max_in_flight=1, max_redirects=0),
        )
        outcome = _fleet(world, config, injector, BUSY).run(requests)
        # every orphaned batch exceeds the 0-redirect budget
        assert outcome.redirects
        assert all(r.action == "shed" for r in outcome.redirects)
        assert outcome.unaccounted == 0


class TestRollingSwap:
    def test_swap_under_load_drops_nothing(self, world):
        snap_v1, snap_v2, hot_rows, requests = world
        fleet = ServingFleet(
            snap_v1, hot_rows=hot_rows, config=_config(num_replicas=4),
        )
        mid = requests[len(requests) // 2].arrival_time
        fleet.schedule_swap(mid, snap_v2)
        outcome = fleet.run(requests)
        assert len(outcome.swaps) == 1
        swap = outcome.swaps[0]
        assert swap.completed
        assert swap.dropped_in_flight == 0
        assert swap.min_live_floor == 2  # ceil(4/2)
        assert swap.min_live_observed >= swap.min_live_floor
        assert outcome.final_version == 2
        assert outcome.unaccounted == 0 and not outcome.shed_ids
        # versions served are monotone across the swap boundary
        for batch in outcome.served_batches:
            if batch.start_time > swap.completed_at:
                assert batch.model_version == 2

    def test_stale_swap_rejected_after_newer_acknowledged(self, world):
        snap_v1, snap_v2, hot_rows, requests = world
        fleet = ServingFleet(
            snap_v1, hot_rows=hot_rows, config=_config(),
        )
        t1 = requests[len(requests) // 3].arrival_time
        t2 = requests[2 * len(requests) // 3].arrival_time
        fleet.schedule_swap(t1, snap_v2)
        fleet.schedule_swap(t2, snap_v1)  # stale re-offer of v1
        outcome = fleet.run(requests)
        assert outcome.stale_swaps_rejected == 1
        assert outcome.final_version == 2
        assert len(outcome.swaps) == 1

    def test_single_replica_swap_completes(self, world):
        # Regression: with N=1 the nominal ceil(N/2) floor is
        # unsatisfiable while draining; the swap must still complete
        # (briefly zero live) instead of wedging the event loop.
        snap_v1, snap_v2, hot_rows, requests = world
        fleet = ServingFleet(
            snap_v1, hot_rows=hot_rows, config=_config(num_replicas=1),
        )
        fleet.schedule_swap(
            requests[len(requests) // 2].arrival_time, snap_v2
        )
        outcome = fleet.run(requests)
        assert outcome.swaps[0].completed
        assert outcome.final_version == 2
        assert len(outcome.results) == len(requests)
        assert outcome.unaccounted == 0


class TestAutoscale:
    def test_scales_up_under_slo_pressure(self, world):
        snap_v1, _, hot_rows, _ = world
        generator = RequestGenerator(SPEC, rate=30000.0, seed=5)
        requests = generator.generate(300)
        config = _config(
            num_replicas=1,
            degradation=DegradationPolicy(slo_target=2e-3),
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4),
        )
        fleet = ServingFleet(
            snap_v1, hot_rows=hot_rows, config=config, service_time=BUSY,
        )
        outcome = fleet.run(requests)
        ups = [e for e in outcome.autoscale_events if e.action == "scale_up"]
        assert ups
        assert len(outcome.replicas) > 1
        assert all(e.live_after <= 4 for e in outcome.autoscale_events)

    def test_scales_down_when_idle_headroom(self, world):
        snap_v1, _, hot_rows, _ = world
        generator = RequestGenerator(SPEC, rate=500.0, seed=5)
        requests = generator.generate(200)
        config = _config(
            num_replicas=2,
            degradation=DegradationPolicy(slo_target=0.5),
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=2, cooldown_ticks=3,
            ),
        )
        fleet = ServingFleet(snap_v1, hot_rows=hot_rows, config=config)
        outcome = fleet.run(requests)
        downs = [
            e for e in outcome.autoscale_events if e.action == "scale_down"
        ]
        assert downs
        retired = [
            r for r in outcome.replicas
            if r.final_state is ReplicaState.RETIRED
        ]
        assert retired
        # a retiring replica never abandons work
        assert outcome.unaccounted == 0 and not outcome.shed_ids


class TestStuckAndSlow:
    def test_stuck_replica_declared_dead_and_redirected(self, world):
        *_, requests = world
        reference = _fleet(world, _config()).run(requests)
        plan = FaultPlan(
            name="stuck-r0",
            specs=(FaultSpec(
                FaultKind.STUCK, FaultSite.REPLICA, replica=0,
                time=requests[len(requests) // 2].arrival_time,
                duration=0.02,
            ),),
        )
        outcome = _fleet(world, _config(), plan.injector()).run(requests)
        assert outcome.replicas[0].stuck_declared
        assert outcome.replicas[0].final_state is ReplicaState.DEAD
        ref = reference.predictions_by_request()
        got = outcome.predictions_by_request()
        assert all(ref[rid] == got[rid] for rid in got)
        assert outcome.unaccounted == 0

    def test_slow_replica_does_not_trip_siblings(self, world):
        *_, requests = world
        plan = FaultPlan(
            name="slow-r0",
            specs=(FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0,
                time=requests[len(requests) // 3].arrival_time,
                duration=0.05, factor=30.0,
            ),),
        )
        outcome = _fleet(world, _config(), plan.injector()).run(requests)
        sibling = outcome.replicas[1]
        assert all(
            tr.dst.value != "open" for tr in sibling.breaker_transitions
        )
        assert outcome.unaccounted == 0


class TestDegradationLadder:
    def test_open_breaker_falls_back_to_stale_model(self, world):
        snap_v1, snap_v2, hot_rows, requests = world
        config = _config(
            num_replicas=1,
            degradation=DegradationPolicy(slo_target=1e-6),  # all breach
        )
        fleet = ServingFleet(snap_v1, hot_rows=hot_rows, config=config)
        fleet.set_fallback(snap_v2, hot_rows, time=0.0)
        outcome = fleet.run(requests)
        assert outcome.replicas[0].fallback_batches > 0
        assert any(
            tr.dst.value == "open"
            for tr in outcome.replicas[0].breaker_transitions
        )
        assert outcome.unaccounted == 0


class TestShedRung:
    """Breakers refuse, nothing fresh to fall back on: shed, never park.

    An x40 slowdown window on every replica trips every breaker.  Batches
    parked behind an open breaker age past the SLO, so each HALF_OPEN
    probe they are later used for fails and the breaker flaps for the
    rest of the run; shedding them lets the first post-window probe
    succeed.  The service time is long enough that every replica keeps
    carrying traffic — a breaker only heals on traffic.
    """

    POLICY = DegradationPolicy(
        slo_target=5e-3,
        breaker=BreakerConfig(
            failure_threshold=3, cooldown=0.02, half_open_successes=2,
        ),
    )

    @staticmethod
    def _slowdown(num_replicas):
        return FaultPlan(
            name="slow",
            specs=tuple(
                FaultSpec(
                    FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=replica,
                    time=0.05, duration=0.1, factor=40.0,
                )
                for replica in range(num_replicas)
            ),
        )

    @pytest.fixture(scope="class")
    def stream(self):
        generator = RequestGenerator(SPEC, rate=1500.0, seed=5)
        return generator.generate(600)  # ~0.4 s: outlives the window

    def _run(self, world, stream, num_replicas, policy, fallback):
        snap_v1, snap_v2, hot_rows, _ = world
        fleet = ServingFleet(
            snap_v1,
            hot_rows=hot_rows,
            config=_config(num_replicas, degradation=policy),
            service_time=ServiceTimeModel(base=1e-3),
            injector=self._slowdown(num_replicas).injector(),
        )
        if fallback:
            fleet.set_fallback(snap_v2, hot_rows, time=0.0)
        return fleet.run(stream)

    def _assert_shed_and_healed(self, outcome, stream):
        assert outcome.shed_ids
        assert not outcome.redirects  # shed by the ladder, not by a crash
        report = outcome.report
        assert report.completed + report.rejected == len(stream)
        assert report.rejected == (
            len(outcome.rejected_ids) + len(outcome.shed_ids)
        )
        assert outcome.unaccounted == 0
        for replica in outcome.replicas:
            assert replica.fallback_batches == 0
            assert replica.final_breaker_state is BreakerState.CLOSED
            # trip, probe, close — with slack for a failed probe or two
            assert 3 <= len(replica.breaker_transitions) <= 9

    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_no_fallback_sheds_and_breakers_heal(
        self, world, stream, num_replicas
    ):
        outcome = self._run(
            world, stream, num_replicas, self.POLICY, fallback=False
        )
        self._assert_shed_and_healed(outcome, stream)

    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_too_stale_fallback_sheds(self, world, stream, num_replicas):
        tight = DegradationPolicy(
            slo_target=self.POLICY.slo_target,
            max_staleness=0.01,  # taken at t=0: aged out before the trip
            breaker=self.POLICY.breaker,
        )
        outcome = self._run(
            world, stream, num_replicas, tight, fallback=True
        )
        self._assert_shed_and_healed(outcome, stream)
        assert outcome.max_fallback_age == 0.0

    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_capacity_blocked_but_healthy_queues(self, world, num_replicas):
        # Every replica at max_in_flight with its breaker CLOSED is a
        # capacity problem, not a health problem: batches wait.
        snap_v1, _, hot_rows, _ = world
        burst = RequestGenerator(SPEC, rate=30000.0, seed=5).generate(300)
        fleet = ServingFleet(
            snap_v1,
            hot_rows=hot_rows,
            config=_config(
                num_replicas, degradation=DegradationPolicy(slo_target=1.0),
            ),
            service_time=ServiceTimeModel(base=1e-3),
        )
        outcome = fleet.run(burst)
        assert outcome.queue_max_depth > 1  # batches did wait
        assert not outcome.shed_ids and not outcome.rejected_ids
        assert len(outcome.results) == len(burst)
        for replica in outcome.replicas:
            assert not replica.breaker_transitions


class TestSingleServerGolden:
    def test_smoke_workload_matches_the_retired_single_server(self):
        """The N=1 fleet reproduces the old single-server loop bit for bit.

        Literals recorded from the worker-pool server this engine
        replaced, on the quickcheck serving smoke (300 requests @
        2000/s, batch 16 / 2 ms, two workers, 10% hot coverage) — on
        the model that server built, every table Eff-TT, at the float64
        it trained at.
        """
        spec = criteo_kaggle_like(scale=3e-5)
        config = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT,
            tt_rank=8, bottom_mlp=(16,), top_mlp=(16,), dtype="float64",
        )
        generator = RequestGenerator(spec, rate=2000.0, seed=0)
        fleet = ServingFleet(
            ModelSnapshot.from_model(all_tt_model(config, seed=0), version=0),
            hot_rows={
                t: generator.hot_rows(t, 0.1)
                for t in range(spec.num_sparse)
            },
            config=FleetConfig(
                num_replicas=1,
                batching=BatchingPolicy(
                    max_batch_size=16, max_wait=2e-3, queue_capacity=512,
                ),
                admission=AdmissionConfig(max_in_flight=2),
            ),
        )
        outcome = fleet.run(generator.generate(300))
        report = outcome.report
        assert (report.completed, report.offered) == (300, 300)
        assert report.num_batches == 65
        assert report.latency_p50 == 0.0016616076768714446
        assert report.latency_p99 == 0.002481338999999992
        assert report.duration == 0.15955892717570347
        assert report.max_queue_depth == 9
        assert math.fsum(
            r.prediction for r in outcome.results
        ) == 156.98809068983212
