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
from repro.analysis.hazards import (
    EventKind,
    Hazard,
    RowEvent,
    TraceRecorder,
    analyze_trace,
)
from repro.analysis.shims import PipelineProbe, RecordingCache, RecordingQueue


@pytest.fixture(scope="module")
def clean_result():
    return run_hazard_experiment(inject_fault=False, num_batches=12)


@pytest.fixture(scope="module")
def faulty_result():
    return run_hazard_experiment(inject_fault=True, num_batches=12)


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

    def test_instrumentation_is_passive(self):
        """Probe on vs. probe off: bit-identical training."""
        from repro.analysis.experiment import _harness
        from repro.sharding.trainer import build_sharded_ps_trainer

        losses = []
        tables = []
        for probe in (None, PipelineProbe()):
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


class TestShims:
    def test_recording_queue_logs_traffic(self):
        recorder = TraceRecorder()
        queue = RecordingQueue(2, recorder, "prefetch")
        queue.put("a")
        queue.put("b")
        assert queue.get() == "a"
        kinds = [e.kind for e in recorder.events]
        assert kinds == [
            EventKind.QUEUE_PUT,
            EventKind.QUEUE_PUT,
            EventKind.QUEUE_GET,
        ]
        assert all(e.stage == "prefetch" for e in recorder.events)

    def test_recording_cache_sync_hits_and_misses(self):
        recorder = TraceRecorder()
        cache = RecordingCache(4, default_lifecycle=2, recorder=recorder, table=1)
        cache.set_batch(0)
        cache.put(np.array([3]), np.ones((1, 4)))
        cache.set_batch(1)
        fresh, hit = cache.synchronize(
            np.array([3, 9]), np.zeros((2, 4))
        )
        assert hit.tolist() == [True, False]
        np.testing.assert_array_equal(fresh[0], np.ones(4))
        hits = [e for e in recorder.events if e.kind is EventKind.SYNC_HIT]
        misses = [e for e in recorder.events if e.kind is EventKind.SYNC_MISS]
        assert [(e.table, e.row, e.batch) for e in hits] == [(1, 3, 1)]
        assert [(e.table, e.row, e.batch) for e in misses] == [(1, 9, 1)]

    def test_recording_cache_eviction_events(self):
        recorder = TraceRecorder()
        cache = RecordingCache(4, default_lifecycle=1, recorder=recorder, table=0)
        cache.put(np.array([7]), np.ones((1, 4)))
        cache.decrement(np.array([7]))
        evicts = [e for e in recorder.events if e.kind is EventKind.CACHE_EVICT]
        assert [(e.table, e.row) for e in evicts] == [(0, 7)]
        assert 7 not in cache

    def test_timestamps_monotonic(self):
        recorder = TraceRecorder()
        probe = PipelineProbe()
        probe.on_gather(0, 0, [1, 2])
        probe.on_apply(0, 0, [1, 2])
        times = [e.time for e in probe.recorder.events]
        assert times == sorted(times)
        # the two operations occupy distinct instants; rows within one
        # operation share an instant
        assert times[0] == times[1] < times[2] == times[3]

    def test_hazard_equality_and_describe(self):
        h = Hazard("RAW", 0, 5, 0, 1, 10, 2, False)
        assert h == Hazard("RAW", 0, 5, 0, 1, 10, 2, False)
        assert "RAW" in h.describe() and "row=5" in h.describe()
        assert "repaired" in Hazard("RAW", 0, 5, 0, 1, 10, 2, True).describe()
