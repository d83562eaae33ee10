"""End-to-end training→serving handoff (the full serving scenario).

Trains a tiny DLRM through the pipelined parameter-server executor,
snapshots it, hot-swaps the snapshot into a serving loop mid-traffic,
and checks the two contracts that make the handoff trustworthy:

* **bitwise correctness** — every online prediction (before and after
  the swap) is bit-identical to offline inference on the corresponding
  snapshot, replayed over the exact served batches;
* **observability** — the SLO report is fully populated, and the cache
  hit rate rises with hot-row coverage under Zipf traffic.
"""

import numpy as np
import pytest

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.serving import (
    AdmissionConfig,
    BatchingPolicy,
    FleetConfig,
    ModelSnapshot,
    RequestGenerator,
    ServingFleet,
    ServingModel,
    replay_batches,
)
from repro.system.parameter_server import (
    HostBackedEmbeddingBag,
    HostParameterServer,
)
from repro.system.pipeline import PipelinedPSTrainer

LR = 0.05
SPEC = criteo_kaggle_like(scale=2e-5)
CFG = DLRMConfig.from_dataset(
    SPEC, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
    tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
)
NUM_REQUESTS = 150


def _trainer():
    rows = list(CFG.table_rows)
    host_positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    host_map = {p: i for i, p in enumerate(host_positions)}
    bags = []
    for t, num_rows in enumerate(rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(num_rows, CFG.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    CFG.backend_for_table(t), num_rows, CFG.embedding_dim,
                    CFG.tt_rank, seed=(300 + t),
                )
            )
    model = DLRM(CFG, seed=9, embedding_bags=bags)
    server = HostParameterServer(
        [rows[p] for p in host_positions], CFG.embedding_dim, lr=LR, seed=3
    )
    return PipelinedPSTrainer(
        model, server, host_map, lr=LR, prefetch_depth=2, grad_queue_depth=1
    )


def _server(snapshot, hot_rows, num_workers=1):
    """A single server: one replica, ``num_workers`` batches in flight."""
    return ServingFleet(
        snapshot,
        hot_rows=hot_rows,
        config=FleetConfig(
            num_replicas=1,
            batching=BatchingPolicy(max_batch_size=16, max_wait=2e-3),
            admission=AdmissionConfig(max_in_flight=num_workers),
        ),
    )


@pytest.fixture(scope="module")
def scenario():
    """Train, snapshot twice (v0 then v1), and serve with a mid-swap."""
    trainer = _trainer()
    log = SyntheticClickLog(SPEC, batch_size=32, seed=0)
    trainer.train(log, 4)
    snapshot_v0 = ModelSnapshot.from_trainer(trainer, version=0)
    trainer.train(log, 6, start=4)
    snapshot_v1 = ModelSnapshot.from_trainer(trainer, version=1)

    generator = RequestGenerator(SPEC, rate=2000.0, seed=2)
    requests = generator.generate(NUM_REQUESTS)
    hot_rows = {
        t: generator.hot_rows(t, 0.2) for t in range(SPEC.num_sparse)
    }
    server = _server(snapshot_v0, hot_rows, num_workers=2)
    swap_time = requests[NUM_REQUESTS // 2].arrival_time
    server.schedule_swap(swap_time, snapshot_v1)
    outcome = server.run(requests)
    return snapshot_v0, snapshot_v1, generator, hot_rows, outcome


class TestHotSwapCorrectness:
    def test_swap_happened_mid_traffic(self, scenario):
        _, _, _, _, outcome = scenario
        versions = outcome.report.requests_per_version
        assert set(versions) == {0, 1}
        assert versions[0] > 0 and versions[1] > 0
        assert outcome.final_version == 1

    def test_predictions_bitwise_match_offline_inference(self, scenario):
        snapshot_v0, snapshot_v1, _, hot_rows, outcome = scenario
        online = outcome.predictions_by_request()
        for snapshot in (snapshot_v0, snapshot_v1):
            batches = [
                b for b in outcome.served_batches
                if b.model_version == snapshot.version
            ]
            assert batches, f"no batches served at v{snapshot.version}"
            offline = replay_batches(
                ServingModel(snapshot.materialize(), hot_rows=hot_rows),
                batches,
            )
            for request_id, prob in offline.items():
                assert online[request_id] == prob  # bit-identical

    def test_swap_changed_the_model(self, scenario):
        snapshot_v0, _, _, hot_rows, outcome = scenario
        # post-swap batches replayed on the *old* snapshot must differ:
        # the swap genuinely changed the served parameters
        post = [b for b in outcome.served_batches if b.model_version == 1]
        stale = replay_batches(
            ServingModel(snapshot_v0.materialize(), hot_rows=hot_rows), post
        )
        online = outcome.predictions_by_request()
        assert any(
            online[request_id] != prob for request_id, prob in stale.items()
        )

    def test_no_requests_lost_across_swap(self, scenario):
        _, _, _, _, outcome = scenario
        assert outcome.report.completed == NUM_REQUESTS
        assert outcome.report.rejected == 0
        assert [r.request_id for r in outcome.results] == list(
            range(NUM_REQUESTS)
        )


class TestSLOReport:
    def test_latency_and_hit_rate_populated(self, scenario):
        _, _, _, _, outcome = scenario
        report = outcome.report
        assert report.latency_p99 > 0.0
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
        assert 0.0 < report.cache_hit_rate < 1.0
        assert report.num_hot_rows > 0
        assert report.max_queue_depth > 0
        assert report.throughput_rps > 0.0
        assert report.num_swaps == 1

    def test_hit_rate_increases_with_coverage(self, scenario):
        snapshot_v0, _, generator, _, _ = scenario
        requests = generator.generate(100)

        def hit_rate(coverage):
            hot = {
                t: generator.hot_rows(t, coverage)
                for t in range(SPEC.num_sparse)
            }
            outcome = _server(snapshot_v0, hot).run(requests)
            return outcome.report.cache_hit_rate

        rates = [hit_rate(c) for c in (0.02, 0.2, 0.8)]
        assert rates[0] < rates[1] < rates[2]
        # Zipf skew: covering 20% of rows serves well over 20% of lookups
        assert rates[1] > 0.2


class TestDeterminism:
    def test_rerun_is_bit_identical(self, scenario):
        snapshot_v0, snapshot_v1, generator, hot_rows, outcome = scenario
        requests = generator.generate(NUM_REQUESTS)
        server = _server(snapshot_v0, hot_rows, num_workers=2)
        server.schedule_swap(outcome.swaps[0].started_at, snapshot_v1)
        again = server.run(requests)
        assert again.results == outcome.results
        np.testing.assert_array_equal(
            [b.finish_time for b in again.served_batches],
            [b.finish_time for b in outcome.served_batches],
        )
