"""Hazard-detector tests: the §V RAW conflict, mechanically verified.

The headline assertions mirror the paper's claim structure:

* the default pipeline (LC cache on) analyzes to **zero** hazards —
  every stale gather is repaired before the worker consumes it;
* disabling life-cycle management (fault injection) surfaces the
  Figure-10(a) read-after-write conflict as ≥1 RAW hazard on a hot
  row;
* the detector itself is deterministic: identical runs produce
  identical traces and identical reports;
* instrumentation is passive: an instrumented run is bit-identical to
  a bare run.
"""

import numpy as np
import pytest

from repro.analysis import run_hazard_experiment
from repro.analysis.experiment import _harness
from repro.analysis.hazards import (
    EventKind,
    Hazard,
    HazardProbe,
    RowEvent,
    analyze_trace,
)
from repro.sharding.trainer import build_sharded_ps_trainer


@pytest.fixture(scope="module")
def clean_result():
    return run_hazard_experiment(inject_fault=False, num_batches=12)


@pytest.fixture(scope="module")
def faulty_result():
    return run_hazard_experiment(inject_fault=True, num_batches=12)


PROBED_BATCHES = 8


@pytest.fixture(scope="module")
def probed_run():
    """(probe, train log, trainer) of a pipelined run under a HazardProbe.

    Both queues are one deep, so the life cycle (2) is short enough for
    the cache to evict."""
    cfg, two_largest, log = _harness(seed=0)
    probe = HazardProbe()
    trainer = build_sharded_ps_trainer(
        cfg, host_positions=two_largest, probe=probe,
        prefetch_depth=1, grad_queue_depth=1,
    ).trainer
    return probe, trainer.train(log, PROBED_BATCHES), trainer


class TestAnalyzer:
    """Unit-level checks on hand-built traces."""

    def _read(self, t, batch, row=5):
        return RowEvent(t, EventKind.GATHER, "server_gather", 0, row, batch)

    def _write(self, t, batch, row=5):
        return RowEvent(t, EventKind.APPLY, "server_apply", 0, row, batch)

    def _sync(self, t, batch, row=5):
        return RowEvent(t, EventKind.SYNC_HIT, "lc_cache", 0, row, batch)

    def test_in_order_trace_is_clean(self):
        events = [self._write(1, batch=0), self._read(2, batch=1)]
        assert analyze_trace(events).clean

    def test_raw_inversion_detected(self):
        # batch 1 gathered before batch 0's write landed.
        events = [self._read(1, batch=1), self._write(2, batch=0)]
        report = analyze_trace(events)
        assert len(report.raw_hazards) == 1
        hazard = report.raw_hazards[0]
        assert (hazard.writer_batch, hazard.reader_batch) == (0, 1)
        assert not hazard.repaired

    def test_raw_repaired_by_sync(self):
        events = [
            self._read(1, batch=1),
            self._write(2, batch=0),
            self._sync(3, batch=1),
        ]
        report = analyze_trace(events)
        assert report.clean
        assert len(report.repaired) == 1

    def test_sync_for_other_batch_does_not_repair(self):
        events = [
            self._read(1, batch=1),
            self._write(2, batch=0),
            self._sync(3, batch=2),  # repairs batch 2, not batch 1
        ]
        assert len(analyze_trace(events).raw_hazards) == 1

    def test_war_inversion_detected(self):
        # batch 2's write landed before batch 1's gather: the earlier
        # batch observed the future.
        events = [self._write(1, batch=2), self._read(2, batch=1)]
        report = analyze_trace(events)
        assert len(report.war_hazards) == 1

    def test_distinct_rows_do_not_interact(self):
        events = [
            self._read(1, batch=1, row=5),
            self._write(2, batch=0, row=6),
        ]
        assert analyze_trace(events).clean

    def test_hot_rows_ranked_by_count(self):
        events = []
        for reader in (2, 3, 4):
            events.append(self._read(reader, batch=reader, row=9))
        events.append(self._write(10, batch=0, row=9))
        events.append(self._read(11, batch=2, row=7))
        events.append(self._write(12, batch=0, row=7))
        report = analyze_trace(events)
        assert report.hot_rows()[0] == (0, 9, 3)


class TestPipelineRuns:
    def test_clean_pipeline_has_zero_hazards(self, clean_result):
        assert clean_result.report.clean
        assert clean_result.report.raw_hazards == []
        assert clean_result.report.war_hazards == []

    def test_clean_pipeline_repaired_conflicts_exist(self, clean_result):
        # The pipeline *does* gather stale rows — the cache heals them.
        assert len(clean_result.report.repaired) > 0
        assert clean_result.train_log.cache_hits > 0

    def test_injection_surfaces_raw_hazards(self, faulty_result):
        assert len(faulty_result.report.raw_hazards) >= 1
        assert faulty_result.train_log.stale_rows_consumed > 0

    def test_injection_hazard_is_on_a_hot_row(self, faulty_result):
        # The §V conflict is a *hot row* phenomenon: a row re-read
        # within the prefetch window.  The top offender must carry
        # multiple hazards.
        hot = faulty_result.report.hot_rows(top=1)
        assert hot and hot[0][2] >= 2

    def test_injection_hazards_name_real_batches(self, faulty_result):
        for hazard in faulty_result.report.raw_hazards:
            assert 0 <= hazard.writer_batch < hazard.reader_batch < 12
            assert hazard.read_time < hazard.write_time

    def test_detector_output_is_deterministic(self):
        a = run_hazard_experiment(inject_fault=True, num_batches=8)
        b = run_hazard_experiment(inject_fault=True, num_batches=8)
        assert a.report.raw_hazards == b.report.raw_hazards
        assert (
            [e for e in a.report.repaired]
            == [e for e in b.report.repaired]
        )
        assert a.report.events_analyzed == b.report.events_analyzed

    def test_clean_run_deterministic_trace(self):
        a = run_hazard_experiment(inject_fault=False, num_batches=6)
        b = run_hazard_experiment(inject_fault=False, num_batches=6)
        assert a.report.events_analyzed == b.report.events_analyzed
        assert len(a.report.repaired) == len(b.report.repaired)

    @pytest.mark.parametrize("num_batches", [0, -3])
    def test_an_empty_run_is_rejected(self, num_batches):
        # zero events would analyze to a clean report: a gate that cannot fail
        with pytest.raises(ValueError, match="num_batches must be > 0"):
            run_hazard_experiment(num_batches=num_batches)

    def test_instrumentation_is_passive(self):
        """Probe on vs. probe off: bit-identical training."""
        losses = []
        tables = []
        for probe in (None, HazardProbe()):
            cfg, two_largest, log = _harness(seed=0)
            setup = build_sharded_ps_trainer(
                cfg, host_positions=two_largest, probe=probe
            )
            result = setup.trainer.train(log, 10)
            losses.append(result.losses)
            tables.append([np.array(t) for t in setup.server.tables])
        np.testing.assert_array_equal(losses[0], losses[1])
        for bare, probed in zip(tables[0], tables[1]):
            np.testing.assert_array_equal(bare, probed)


class TestHazardProbe:
    """What the trainer reports, as the probe records it."""

    def test_queue_traffic_is_recorded(self, probed_run):
        probe, _, trainer = probed_run
        capacity = {
            "prefetch": trainer.prefetch_depth,
            "gradient": trainer.grad_queue_depth,
        }
        depth = {"prefetch": 0, "gradient": 0}
        counts = {"prefetch": [0, 0], "gradient": [0, 0]}
        for event in probe.recorder.events:
            if event.kind in (EventKind.QUEUE_PUT, EventKind.QUEUE_GET):
                put = event.kind is EventKind.QUEUE_PUT
                depth[event.stage] += 1 if put else -1
                counts[event.stage][0 if put else 1] += 1
                assert 0 <= depth[event.stage] <= capacity[event.stage]
                assert (event.table, event.row, event.batch) == (-1, -1, -1)
        # every batch goes through both queues once, and both end empty
        assert counts == {
            "prefetch": [PROBED_BATCHES] * 2, "gradient": [PROBED_BATCHES] * 2,
        }

    def test_cache_events_replay_against_the_cache(self, probed_run):
        """Replaying the cache events keeps a consistent set of cached
        rows, and the sync events are the hits and misses the log counts."""
        probe, train_log, trainer = probed_run
        cached = set()
        decremented = {}  # time -> rows a decrement kept
        hits = misses = evictions = 0
        for event in probe.recorder.events:
            key = (event.table, event.row)
            if event.kind is EventKind.CACHE_PUT:
                cached.add(key)
            elif event.kind in (EventKind.CACHE_DEC, EventKind.SYNC_HIT):
                assert key in cached
                hits += event.kind is EventKind.SYNC_HIT
                if event.kind is EventKind.CACHE_DEC:
                    decremented.setdefault(event.time, set()).add(key)
            elif event.kind is EventKind.CACHE_EVICT:
                # an evicted row is not also reported as kept
                assert key not in decremented.get(event.time, ())
                cached.remove(key)
                evictions += 1
            elif event.kind is EventKind.SYNC_MISS:
                assert key not in cached
                misses += 1
        assert (hits, misses) == (train_log.cache_hits, train_log.cache_misses)
        assert hits > 0 and evictions > 0
        assert cached == {
            (pos, row) for pos, cache in trainer.caches.items()
            for row in range(trainer.model.config.table_rows[pos])
            if row in cache
        }

    def test_timestamps_monotonic(self):
        probe = HazardProbe()
        probe.on_gather(0, 0, np.array([1, 2]))
        probe.on_apply(0, 0, np.array([1, 2]))
        times = [e.time for e in probe.recorder.events]
        assert times == sorted(times)
        # the two operations occupy distinct instants; rows within one
        # operation share an instant
        assert times[0] == times[1] < times[2] == times[3]

    def test_cache_events_carry_the_training_batch(self):
        probe = HazardProbe()
        probe.on_batch_start(4)
        probe.on_cache(1, (EventKind.SYNC_HIT, np.array([3])),
                       (EventKind.SYNC_MISS, np.array([9])))
        assert [(e.kind, e.table, e.row, e.batch, e.time)
                for e in probe.recorder.events] == [
            (EventKind.SYNC_HIT, 1, 3, 4, 1),
            (EventKind.SYNC_MISS, 1, 9, 4, 1),
        ]

    def test_hazard_equality_and_describe(self):
        h = Hazard("RAW", 0, 5, 0, 1, 10, 2, False)
        assert h == Hazard("RAW", 0, 5, 0, 1, 10, 2, False)
        assert "RAW" in h.describe() and "row=5" in h.describe()
        assert "repaired" in Hazard("RAW", 0, 5, 0, 1, 10, 2, True).describe()
