"""One materialised, read-only serving state per snapshot, shared by views.

A replica's fault domain is its breaker, in-flight table, lifecycle and
hit/miss counters.  The immutable bytes — MLP parameters, TT cores, the
reconstructed hot-row tables — are built once per ``(snapshot, hot-row
map contents)`` and every replica, fleet run and swap install serves
from that one copy through a thin view.
"""

import zlib

import numpy as np
import pytest

import repro.serving.snapshot as snapshot_module
from repro.data.datasets import criteo_kaggle_like
from repro.embeddings.inference import HotRowCachedLookup
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.resilience.degradation import DegradationPolicy
from repro.resilience.faults import FaultKind, FaultPlan, FaultSite, FaultSpec
from repro.serving.batcher import BatchingPolicy
from repro.serving.fleet import FleetConfig, ReplicaExecutor, ServingFleet
from repro.serving.requests import RequestGenerator
from repro.serving.server import ServiceTimeModel, ServingModel, replay_batches
from repro.serving.snapshot import ModelSnapshot
from tests.conftest import all_tt_model

SPEC = criteo_kaggle_like(scale=2e-5)
CFG = DLRMConfig.from_dataset(
    SPEC, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
    bottom_mlp=(16,), top_mlp=(16,),
)
NUM_TABLES = SPEC.num_sparse
#: Tables the config keeps compressed (TT smaller than dense); only
#: they are served through a hot-row cache, the dense ones directly.
CACHED = [
    t for t in range(NUM_TABLES)
    if CFG.backend_for_table(t) is not EmbeddingBackend.DENSE
]
GENERATOR = RequestGenerator(SPEC, rate=2500.0, seed=5)
REQUESTS = GENERATOR.generate(240)
HOT_ROWS = {t: GENERATOR.hot_rows(t, 0.3) for t in range(NUM_TABLES)}


def _snapshot(seed, version, model=DLRM):
    # Function-scoped on purpose: the shared state lives on the
    # snapshot object, so a fresh one starts every count at zero.
    return ModelSnapshot.from_model(model(CFG, seed=seed), version=version)


def _config(num_replicas=4):
    return FleetConfig(
        num_replicas=num_replicas,
        batching=BatchingPolicy(
            max_batch_size=8, max_wait=1e-3, queue_capacity=512,
        ),
        degradation=DegradationPolicy(slo_target=0.05),
        queue_capacity=512,
    )


@pytest.fixture
def counts(monkeypatch):
    """Count checkpoint decodes and hot-row table builds."""
    seen = {"load": 0, "refresh": 0}
    real_load = snapshot_module.load_checkpoint
    real_refresh = HotRowCachedLookup.refresh

    def load(path):
        seen["load"] += 1
        return real_load(path)

    def refresh(self):
        seen["refresh"] += 1
        return real_refresh(self)

    monkeypatch.setattr(snapshot_module, "load_checkpoint", load)
    monkeypatch.setattr(HotRowCachedLookup, "refresh", refresh)
    return seen


def _executor(snapshot, hot_rows=HOT_ROWS, replica_id=0):
    return ReplicaExecutor(
        replica_id, snapshot, hot_rows,
        DegradationPolicy().breaker, ServiceTimeModel(),
    )


class TestBuiltOnce:
    def test_four_replicas_three_runs_one_load(self, counts):
        fleet = ServingFleet(_snapshot(7, 1), hot_rows=HOT_ROWS, config=_config())
        for _ in range(3):
            fleet.run(REQUESTS)
        assert counts == {"load": 1, "refresh": len(CACHED)}

    def test_a_scheduled_swap_is_exactly_one_more_load(self, counts):
        fleet = ServingFleet(_snapshot(7, 1), hot_rows=HOT_ROWS, config=_config())
        fleet.schedule_swap(REQUESTS[120].arrival_time, _snapshot(9, 2))
        outcome = fleet.run(REQUESTS)
        assert outcome.swaps[0].completed and outcome.final_version == 2
        assert len(outcome.swaps[0].replica_times) == 4  # N installs
        assert counts == {"load": 2, "refresh": 2 * len(CACHED)}

    def test_a_fallback_snapshot_is_one_more_load(self, counts):
        fleet = ServingFleet(_snapshot(7, 1), hot_rows=HOT_ROWS, config=_config())
        fleet.set_fallback(_snapshot(3, 0), HOT_ROWS)
        fleet.run(REQUESTS)
        fleet.run(REQUESTS)
        assert counts == {"load": 2, "refresh": 2 * len(CACHED)}

    def test_the_state_dies_with_the_snapshot_object(self, counts):
        # Same bytes, new object: nothing is cached by value or by version.
        first = _snapshot(7, 1)
        _executor(first)
        _executor(ModelSnapshot(first._payload, version=1))
        assert counts["load"] == 2

    def test_materialize_still_returns_an_independent_writable_model(self):
        snapshot = _snapshot(7, 1)
        _executor(snapshot)
        a, b = snapshot.materialize(), snapshot.materialize()
        core_a = a.embedding_bags[2].state_arrays()["core0"]
        core_b = b.embedding_bags[2].state_arrays()["core0"]
        assert core_a.flags.writeable and not np.shares_memory(core_a, core_b)
        core_a[...] = 0.0
        assert core_b.any()


class TestSharingIsByHotRowContents:
    @staticmethod
    def _table(executor, t=2):
        return executor.serving_model._views[t]._hot_values

    def test_equal_contents_share_one_value_table(self, counts):
        snapshot = _snapshot(7, 1)
        same = {t: rows.copy() for t, rows in HOT_ROWS.items()}
        one = ServingFleet(snapshot, hot_rows=HOT_ROWS, config=_config(1))
        two = ServingFleet(snapshot, hot_rows=same, config=_config(1))
        one.run(REQUESTS[:20])
        two.run(REQUESTS[:20])
        assert counts == {"load": 1, "refresh": len(CACHED)}
        assert self._table(_executor(snapshot)) is self._table(
            _executor(snapshot, same)
        )

    def test_different_contents_never_share(self, counts):
        snapshot = _snapshot(7, 1)
        other = dict(HOT_ROWS)
        other[2] = HOT_ROWS[2][:-1]
        a, b = _executor(snapshot), _executor(snapshot, other)
        assert counts == {"load": 2, "refresh": 2 * len(CACHED)}
        for t in CACHED:
            assert not np.shares_memory(self._table(a, t), self._table(b, t))
        assert self._table(b).shape[0] == self._table(a).shape[0] - 1

    def test_no_map_and_empty_map_are_the_same_contents(self, counts):
        snapshot = _snapshot(7, 1)
        _executor(snapshot, None)
        _executor(snapshot, {})
        assert counts == {"load": 1, "refresh": 0}


def _reachable_arrays(serving_model):
    arrays = [p.data for p in serving_model.model.parameters()]
    for bag in serving_model.model.embedding_bags:
        arrays.extend(bag.state_arrays().values())
    for view in serving_model.cached_views:
        arrays.extend([view._hot_rows, view._hot_values])
    return arrays


def _digest(serving_model):
    return [zlib.crc32(a.tobytes()) for a in _reachable_arrays(serving_model)]


class TestReadOnly:
    def test_every_reachable_array_is_read_only(self):
        replica = _executor(_snapshot(7, 1))
        arrays = _reachable_arrays(replica.serving_model)
        assert len(arrays) > NUM_TABLES
        assert not any(a.flags.writeable for a in arrays)

    def test_writes_through_a_replica_raise_and_leave_siblings_intact(self):
        snapshot = _snapshot(7, 1)
        victim, sibling = _executor(snapshot), _executor(snapshot, replica_id=1)
        before = _digest(sibling.serving_model)
        model = victim.serving_model.model
        bag = model.embedding_bags[2]
        idx = np.array([1, 5, 9])
        bag.forward(idx)
        bag.backward(np.ones((3, CFG.embedding_dim)))
        with pytest.raises(ValueError, match="read-only"):
            bag.step(0.1)
        with pytest.raises(ValueError, match="read-only"):
            bag.load_state_arrays(
                {k: v.copy() for k, v in bag.state_arrays().items()}
            )
        with pytest.raises(ValueError, match="read-only"):
            next(iter(model.parameters())).data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            victim.serving_model.cached_views[0]._hot_values[0] = 0.0
        assert _digest(sibling.serving_model) == before

    def test_a_refresh_rebinds_only_the_refreshing_view(self):
        snapshot = _snapshot(7, 1)
        a, b = _executor(snapshot), _executor(snapshot, replica_id=1)
        view_a = a.serving_model.cached_views[0]
        view_b = b.serving_model.cached_views[0]
        shared = view_b._hot_values
        view_a.refresh()
        assert view_b._hot_values is shared
        assert view_a._hot_values is not shared
        np.testing.assert_array_equal(view_a._hot_values, shared)
        assert (view_a.refreshes, view_b.refreshes) == (1, 0)


def _kill_one(replica, time):
    return FaultPlan(
        name=f"crash-r{replica}",
        specs=(FaultSpec(
            FaultKind.CRASH, FaultSite.REPLICA, replica=replica, time=time,
        ),),
    ).injector()


def _busy_fleet(snapshot, num_replicas=4, injector=None):
    """4 ms per batch: every replica holds work when one is killed."""
    return ServingFleet(
        snapshot, hot_rows=HOT_ROWS, config=_config(num_replicas),
        service_time=ServiceTimeModel(base=4e-3), injector=injector,
    )


class TestPerReplicaAccounting:
    """Counters are per view, so sharing the tables changes no number.

    On the all-TT model (an explicit plan): that is what the commit the
    numbers come from built for ``CFG``, and with every table behind a
    cache every lookup is a hot or a cold one.
    """

    # From the commit before sharing (private model per replica), same stream.
    PARENT_REQUESTS_SERVED = (64, 65, 65, 46)
    PARENT_HOT, PARENT_COLD = 1056, 5184

    @pytest.fixture(scope="class")
    def outcome(self):
        fleet = _busy_fleet(_snapshot(7, 1, all_tt_model))
        fleet.run(REQUESTS)  # counters of an earlier run must not leak
        return fleet.run(REQUESTS)

    def test_requests_served_match_the_parent(self, outcome):
        served = tuple(r.requests_served for r in outcome.replicas)
        assert served == self.PARENT_REQUESTS_SERVED
        assert sum(served) == len(REQUESTS) == outcome.report.completed

    def test_hot_and_cold_lookups_are_exact_per_batch(self, outcome):
        for served in outcome.served_batches:
            hot = sum(
                int(np.isin(idx, HOT_ROWS[t]).sum())
                for t, idx in enumerate(served.batch.sparse_indices)
            )
            total = sum(idx.size for idx in served.batch.sparse_indices)
            assert (served.hot_lookups, served.cold_lookups) == (hot, total - hot)
        assert sum(b.hot_lookups for b in outcome.served_batches) == self.PARENT_HOT
        assert sum(b.cold_lookups for b in outcome.served_batches) == self.PARENT_COLD

    def test_fleet_equals_replay_on_an_untouched_model(self, outcome):
        snapshot = _snapshot(7, 1, all_tt_model)
        reference = ServingModel(snapshot.materialize(), hot_rows=HOT_ROWS, version=1)
        assert outcome.predictions_by_request() == replay_batches(
            reference, outcome.served_batches
        )

    def test_one_replica_and_four_deliver_identical_bits(self, outcome):
        # Default service time, so one replica keeps up and sheds nothing.
        single = ServingFleet(
            _snapshot(7, 1, all_tt_model), hot_rows=HOT_ROWS, config=_config(1)
        ).run(REQUESTS)
        assert single.report.completed == len(REQUESTS)
        assert single.predictions_by_request() == outcome.predictions_by_request()

    def test_killing_replica_one_leaves_the_survivors_bit_identical(self, outcome):
        snapshot = _snapshot(7, 1, all_tt_model)
        survivor = _executor(snapshot, replica_id=9)
        before = _digest(survivor.serving_model)
        killed = _busy_fleet(
            snapshot, injector=_kill_one(1, REQUESTS[120].arrival_time)
        ).run(REQUESTS)
        assert any(r.from_replica == 1 for r in killed.redirects)
        states = {r.replica_id: r.final_state for r in killed.replicas}
        assert states[1] == "dead"
        assert {states[i] for i in (0, 2, 3)} == {"live"}
        assert killed.unaccounted == 0 and not killed.shed_ids
        assert killed.batch_compositions() == outcome.batch_compositions()
        assert killed.predictions_by_request() == outcome.predictions_by_request()
        assert _digest(survivor.serving_model) == before
