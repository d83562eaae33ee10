"""Tests for SLO accounting and serving trace export."""

import json

import numpy as np
import pytest

from repro.data.dataloader import Batch
from repro.serving.metrics import (
    RequestResult,
    ServedBatch,
    SLOReport,
    export_serving_trace,
    serving_trace_events,
)


def _result(request_id, arrival, finish, version=0):
    return RequestResult(
        request_id=request_id,
        arrival_time=arrival,
        finish_time=finish,
        model_version=version,
        prediction=0.5,
    )


def _batch(batch_id, worker=0, start=0.0, finish=0.001, version=0, size=2):
    return ServedBatch(
        batch_id=batch_id,
        request_ids=tuple(range(size)),
        batch=Batch(
            dense=np.zeros((size, 1)),
            sparse_indices=[np.zeros(size, dtype=np.int64)],
            sparse_offsets=[np.arange(size + 1, dtype=np.int64)],
            labels=np.zeros(size),
            batch_id=batch_id,
        ),
        model_version=version,
        worker_id=worker,
        start_time=start,
        finish_time=finish,
        predictions=np.full(size, 0.5),
        hot_lookups=size - 1,
        cold_lookups=1,
    )


def _report(results, batches=(), rejected=0, num_swaps=0, duration=1.0,
            max_queue_depth=0, num_hot_rows=0):
    return SLOReport.from_records(
        results, batches, rejected=rejected, num_swaps=num_swaps,
        duration=duration, max_queue_depth=max_queue_depth,
        num_hot_rows=num_hot_rows,
    )


class TestServingMetrics:
    """:meth:`SLOReport.from_records`, the one place a report is made."""

    def test_report_aggregates(self):
        report = _report(
            [_result(i, 0.0, 0.001 * (i + 1)) for i in range(10)],
            [_batch(0, size=4), _batch(1, size=6)],
            rejected=1, num_swaps=1, duration=2.0, max_queue_depth=7,
            num_hot_rows=100,
        )
        assert report.offered == 11
        assert report.completed == 10
        assert report.rejected == 1
        assert report.rejection_rate == pytest.approx(1 / 11)
        assert report.throughput_rps == pytest.approx(5.0)
        assert report.mean_batch_size == pytest.approx(5.0)
        assert report.num_swaps == 1
        assert report.max_queue_depth == 7
        assert report.num_hot_rows == 100
        # hot lookups are size - 1 per batch, cold 1: (3 + 5) / 10
        assert report.cache_hit_rate == pytest.approx(0.8)
        assert report.latency_p50 == pytest.approx(
            np.percentile([0.001 * (i + 1) for i in range(10)], 50)
        )

    def test_latency_summary_matches_numpy(self):
        rng = np.random.default_rng(0)
        finish = rng.exponential(1e-3, size=57)
        report = _report([_result(i, 0.0, f) for i, f in enumerate(finish)])
        for q, value in (
            (50, report.latency_p50), (95, report.latency_p95),
            (99, report.latency_p99),
        ):
            assert value == pytest.approx(np.percentile(finish, q), abs=1e-15)
        assert report.latency_max == finish.max()

    def test_mean_is_summed_in_completion_order(self):
        finish = [1.0, 1e-16, 1e-16]
        results = [_result(i, 0.0, f) for i, f in enumerate(finish)]
        in_order = (1.0 + 1e-16 + 1e-16) / 3
        assert in_order != (1e-16 + 1e-16 + 1.0) / 3  # the order shows
        assert _report(results).latency_mean == in_order

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency must be >= 0"):
            _report([_result(0, 0.5, 0.25)])

    def test_latency_ordering(self):
        report = _report(
            [_result(i, 0.0, 0.001 * (i + 1)) for i in range(100)]
        )
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
        assert report.latency_p99 <= report.latency_max

    def test_versions_attributed(self):
        report = _report([
            _result(0, 0.0, 0.1, version=0),
            _result(1, 0.0, 0.1, version=1),
            _result(2, 0.0, 0.1, version=1),
        ])
        assert report.requests_per_version == {0: 1, 1: 2}

    def test_empty_run(self):
        report = _report([], duration=0.0)
        assert report.completed == 0
        assert report.throughput_rps == 0.0
        assert report.latency_p99 == 0.0

    def test_empty_run_reports_zero_latencies(self):
        report = _report([], duration=0.0)
        assert report.cache_hit_rate == 0.0
        assert (
            report.latency_p50, report.latency_p95, report.latency_p99,
            report.latency_mean, report.latency_max,
        ) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_meets_slo(self):
        report = _report([_result(0, 0.0, 0.002)])
        assert report.meets(0.005)
        assert not report.meets(0.001)
        with pytest.raises(ValueError):
            report.meets(0.0)

    def test_format_mentions_all_fields(self):
        text = _report(
            [_result(0, 0.0, 0.002)], max_queue_depth=3, num_hot_rows=50
        ).format()
        for token in ("p99", "throughput", "hit_rate", "queue_depth"):
            assert token in text


class TestTraceExport:
    def test_event_shape_matches_trace_export_convention(self):
        events = serving_trace_events([_batch(0, worker=1)], swap_times=[0.5])
        complete = [e for e in events if e.get("ph") == "X"]
        assert len(complete) == 1
        event = complete[0]
        # Chrome Trace Event fields: microseconds, pid 0, tid = worker + 1
        assert event["ts"] == pytest.approx(0.0)
        assert event["dur"] == pytest.approx(1000.0)  # 1 ms in us
        assert event["pid"] == 0
        assert event["tid"] == 2
        assert event["args"]["model_version"] == 0

    def test_swap_instant_event(self):
        events = serving_trace_events([], swap_times=[0.25])
        instants = [e for e in events if e.get("ph") == "i"]
        assert len(instants) == 1
        assert instants[0]["ts"] == pytest.approx(0.25e6)

    def test_thread_names_per_worker(self):
        events = serving_trace_events(
            [_batch(0, worker=0), _batch(1, worker=2)]
        )
        names = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert names == {"WORKER 0", "WORKER 2"}

    def test_export_writes_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_serving_trace(
            str(path), [_batch(0)], swap_times=[0.1]
        )
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
