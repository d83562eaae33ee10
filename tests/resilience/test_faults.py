"""Tests for the deterministic fault injector and the probe that fires it."""

import pytest

from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultProbe,
    FaultSite,
    FaultSpec,
    H2DCopyError,
    InjectedCrash,
    QueueStallTimeout,
)
from repro.system.queues import BoundedQueue


def _plan(*specs: FaultSpec) -> FaultPlan:
    return FaultPlan(name="t", specs=specs)


class TestFaultSpec:
    def test_invalid_kind_site_combo_rejected(self):
        with pytest.raises(ValueError, match="cannot target"):
            FaultSpec(FaultKind.CRASH, FaultSite.PREFETCH_QUEUE, step=1)
        with pytest.raises(ValueError, match="cannot target"):
            FaultSpec(FaultKind.DROP, FaultSite.PREFETCH_QUEUE, step=1)

    def test_trainer_fault_needs_step(self):
        with pytest.raises(ValueError, match="step"):
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN)
        with pytest.raises(ValueError, match="step"):
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=-1)

    def test_slowdown_validation(self):
        def slowdown(**kwargs):
            return FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0, **kwargs
            )

        with pytest.raises(ValueError, match="time"):
            slowdown(duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            slowdown(time=0.0)
        with pytest.raises(ValueError, match="factor"):
            slowdown(time=0.0, duration=1.0, factor=0.5)
        with pytest.raises(ValueError, match="cannot target"):
            FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.TRAIN, time=0.0, duration=1.0
            )

    def test_describe_mentions_kind_site_step(self):
        spec = FaultSpec(FaultKind.CRASH, FaultSite.APPLY, step=7)
        text = spec.describe()
        assert "crash" in text and "apply" in text and "7" in text


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random("fuzz", seed=3, num_faults=4, max_step=20)
        b = FaultPlan.random("fuzz", seed=3, num_faults=4, max_step=20)
        assert a.specs == b.specs
        assert len(a.specs) == 4
        assert all(1 <= s.step < 20 for s in a.specs)
        # distinct steps, ascending
        steps = [s.step for s in a.specs]
        assert steps == sorted(set(steps))

    def test_random_different_seed_differs(self):
        a = FaultPlan.random("fuzz", seed=3, num_faults=4, max_step=20)
        b = FaultPlan.random("fuzz", seed=4, num_faults=4, max_step=20)
        assert a.specs != b.specs

    def test_random_caps_at_available_steps(self):
        plan = FaultPlan.random("fuzz", seed=0, num_faults=50, max_step=5)
        assert len(plan.specs) == 4

    def test_train_serve_partition(self):
        plan = _plan(
            FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=1),
            FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0,
                time=0.0, duration=1.0, factor=2.0,
            ),
        )
        assert len(plan.train_specs) == 1
        assert len(plan.fleet_specs) == 1


class TestFaultInjector:
    def test_crash_fires_exactly_once(self):
        spec = FaultSpec(FaultKind.CRASH, FaultSite.TRAIN, step=2)
        injector = _plan(spec).injector()
        injector.stage_crash(FaultSite.TRAIN, 1)  # wrong step: no fire
        with pytest.raises(InjectedCrash) as err:
            injector.stage_crash(FaultSite.TRAIN, 2)
        assert err.value.spec is spec
        # one-shot: the replay of step 2 passes cleanly
        injector.stage_crash(FaultSite.TRAIN, 2)
        assert injector.pending == ()
        assert injector.fired == (spec,)
        assert injector.records[0].fired_step == 2

    def test_site_is_matched(self):
        injector = _plan(
            FaultSpec(FaultKind.CRASH, FaultSite.GATHER, step=3)
        ).injector()
        injector.stage_crash(FaultSite.TRAIN, 3)  # other stage unaffected
        with pytest.raises(InjectedCrash):
            injector.stage_crash(FaultSite.GATHER, 3)

    def test_slowdown_window(self):
        injector = _plan(
            FaultSpec(
                FaultKind.SLOWDOWN, FaultSite.REPLICA, replica=0,
                time=1.0, duration=0.5, factor=4.0,
            ),
        ).injector()
        assert injector.replica_slowdown_factor(0, 0.5) == 1.0
        assert injector.replica_slowdown_factor(0, 1.2) == 4.0
        assert injector.replica_slowdown_factor(1, 1.2) == 1.0  # other replica
        assert injector.replica_slowdown_factor(0, 1.5) == 1.0  # half-open
        # entering the window is recorded once, not per query
        assert injector.replica_slowdown_factor(0, 1.3) == 4.0
        assert len(injector.records) == 1


class TestQueueHooks:
    """FaultProbe's queue hooks, called as the pipelined trainer calls
    them: before the queue operation they may fail or withhold."""

    @staticmethod
    def _put(probe, queue, name, item):
        if probe.on_queue_put(name):
            queue.put(item)

    @staticmethod
    def _get(probe, queue, name):
        probe.on_queue_get(name)
        return queue.get()

    def test_h2d_fault_on_get_is_one_shot(self):
        probe = FaultProbe(_plan(
            FaultSpec(FaultKind.H2D_FAIL, FaultSite.PREFETCH_QUEUE, step=1),
        ).injector())
        queue = BoundedQueue(4)
        self._put(probe, queue, "prefetch", "batch")
        probe.on_batch_start(1)
        with pytest.raises(H2DCopyError):
            self._get(probe, queue, "prefetch")
        assert len(queue) == 1  # the failed copy left the item queued
        assert self._get(probe, queue, "prefetch") == "batch"

    def test_stall_on_get(self):
        probe = FaultProbe(_plan(
            FaultSpec(FaultKind.STALL, FaultSite.PREFETCH_QUEUE, step=0),
        ).injector())
        queue = BoundedQueue(4)
        self._put(probe, queue, "prefetch", "batch")
        probe.on_batch_start(0)
        with pytest.raises(QueueStallTimeout):
            self._get(probe, queue, "prefetch")
        assert len(queue) == 1

    def test_drop_on_put_is_silent(self):
        probe = FaultProbe(_plan(
            FaultSpec(FaultKind.DROP, FaultSite.GRAD_QUEUE, step=4),
        ).injector())
        queue = BoundedQueue(4)
        probe.on_batch_start(4)
        self._put(probe, queue, "gradient", "grad")  # swallowed, no error
        assert len(queue) == 0
        assert [r.spec.kind for r in probe.injector.records] == [FaultKind.DROP]
        self._put(probe, queue, "gradient", "next")  # one-shot: later puts land
        assert len(queue) == 1

    def test_a_fault_fires_at_its_own_queue_only(self):
        injector = _plan(
            FaultSpec(FaultKind.H2D_FAIL, FaultSite.PREFETCH_QUEUE, step=2),
            FaultSpec(FaultKind.DROP, FaultSite.GRAD_QUEUE, step=2),
        ).injector()
        probe = FaultProbe(injector)
        probe.on_batch_start(2)
        probe.on_queue_get("gradient")  # no fault at the gradient queue's get
        assert probe.on_queue_put("prefetch")  # nor at the prefetch queue's put
        assert len(injector.pending) == 2
        with pytest.raises(H2DCopyError):
            probe.on_queue_get("prefetch")
        assert not probe.on_queue_put("gradient")
        assert injector.pending == ()


class TestFaultProbe:
    def test_segment_accounting(self):
        probe = FaultProbe(_plan().injector())
        probe.on_batch_start(0)
        probe.on_update(0, 0, None)
        probe.on_apply(0, 0, None)
        probe.on_batch_start(1)
        probe.on_update(1, 0, None)  # trained but never applied
        assert probe.steps_started == 2
        assert probe.missing_applies() == [1]
        assert probe.duplicate_applies() == []
        probe.on_apply(0, 0, None)  # same (batch, table) again
        assert probe.duplicate_applies() == [(0, 0)]
        probe.begin_segment()
        assert probe.steps_started == 0
        assert probe.missing_applies() == []
