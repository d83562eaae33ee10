"""SLO accounting for the serving loop.

Collects the per-request and per-batch records the serving event loop
emits and condenses them into an :class:`SLOReport` — the p50/p95/p99
latency, throughput, rejection, and cache-effectiveness summary an
operator would alert on.  Percentiles come from the shared
:mod:`repro.utils.timer` implementation so serving reports and kernel
benches can never disagree on definition.

Also exports the served-batch timeline as Chrome Trace Event JSON, for
the ``chrome://tracing`` / Perfetto workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import Batch
from repro.utils.timer import LatencyHistogram, percentiles

__all__ = [
    "RequestResult",
    "ServedBatch",
    "SLOReport",
    "ServingMetrics",
    "serving_trace_events",
    "export_serving_trace",
]


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one completed request."""

    request_id: int
    arrival_time: float
    finish_time: float
    model_version: int
    prediction: float

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time


@dataclass(frozen=True)
class ServedBatch:
    """One micro-batch's service record (replayable).

    Holds the exact coalesced :class:`Batch` that went through the
    model, so offline verification can re-run the identical input and
    compare predictions bit for bit.
    """

    batch_id: int
    request_ids: Tuple[int, ...]
    batch: Batch
    model_version: int
    worker_id: int
    start_time: float
    finish_time: float
    predictions: np.ndarray
    hot_lookups: int
    cold_lookups: int

    @property
    def size(self) -> int:
        return len(self.request_ids)

    @property
    def service_time(self) -> float:
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class SLOReport:
    """Operator-facing summary of one serving run.

    All latencies are seconds of *simulated* time (arrival to
    completion, queueing included).
    """

    offered: int
    completed: int
    rejected: int
    duration: float
    throughput_rps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    num_batches: int
    mean_batch_size: float
    max_queue_depth: int
    cache_hit_rate: float
    num_hot_rows: int
    num_swaps: int
    requests_per_version: Dict[int, int] = field(default_factory=dict)

    def meets(self, p99_target: float) -> bool:
        """Whether the run's p99 latency met a target (seconds)."""
        if p99_target <= 0:
            raise ValueError(f"p99_target must be > 0, got {p99_target}")
        return self.latency_p99 <= p99_target

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    def to_dict(self) -> Dict[str, float]:
        out = {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "duration_s": self.duration,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50 * 1e3,
            "latency_p95_ms": self.latency_p95 * 1e3,
            "latency_p99_ms": self.latency_p99 * 1e3,
            "latency_mean_ms": self.latency_mean * 1e3,
            "latency_max_ms": self.latency_max * 1e3,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "cache_hit_rate": self.cache_hit_rate,
            "num_hot_rows": self.num_hot_rows,
            "num_swaps": self.num_swaps,
        }
        return out

    def format(self) -> str:
        """Two-column text table of every report field."""
        from repro.bench.harness import format_table

        rows = []
        for key, value in self.to_dict().items():
            if isinstance(value, float):
                rows.append([key, f"{value:.4g}"])
            else:
                rows.append([key, str(value)])
        for version, count in sorted(self.requests_per_version.items()):
            rows.append([f"requests @ model v{version}", str(count)])
        return format_table(
            ["metric", "value"], rows, title="Serving SLO report"
        )


class ServingMetrics:
    """Accumulator the serving event loop feeds record by record."""

    def __init__(self) -> None:
        self.latencies = LatencyHistogram()
        self.results: List[RequestResult] = []
        self.served_batches: List[ServedBatch] = []
        self.swap_times: List[float] = []
        self.rejected = 0

    def record_batch(self, served: ServedBatch) -> None:
        self.served_batches.append(served)

    def record_result(self, result: RequestResult) -> None:
        self.results.append(result)
        self.latencies.record(result.latency)

    def record_rejection(self) -> None:
        self.rejected += 1

    def record_swap(self, time: float) -> None:
        self.swap_times.append(time)

    # ------------------------------------------------------------------
    def build_report(
        self,
        duration: float,
        max_queue_depth: int,
        cache_hit_rate: float,
        num_hot_rows: int,
    ) -> SLOReport:
        summary = self.latencies.summary()
        completed = len(self.results)
        sizes = [b.size for b in self.served_batches]
        per_version: Dict[int, int] = {}
        for result in self.results:
            per_version[result.model_version] = (
                per_version.get(result.model_version, 0) + 1
            )
        return SLOReport(
            offered=completed + self.rejected,
            completed=completed,
            rejected=self.rejected,
            duration=duration,
            throughput_rps=completed / duration if duration > 0 else 0.0,
            latency_p50=summary["p50"],
            latency_p95=summary["p95"],
            latency_p99=summary["p99"],
            latency_mean=summary["mean"],
            latency_max=summary["max"],
            num_batches=len(self.served_batches),
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            max_queue_depth=max_queue_depth,
            cache_hit_rate=cache_hit_rate,
            num_hot_rows=num_hot_rows,
            num_swaps=len(self.swap_times),
            requests_per_version=per_version,
        )


def serving_trace_events(
    served_batches: Sequence[ServedBatch],
    swap_times: Sequence[float] = (),
) -> List[Dict]:
    """Chrome Trace Event list for a serving run.

    One ``"X"`` (complete) event per served batch on its worker's
    timeline row, one global instant event per hot swap, plus
    thread-name metadata.
    """
    events: List[Dict] = []
    workers = set()
    for served in served_batches:
        workers.add(served.worker_id)
        events.append(
            {
                "name": f"batch {served.batch_id} (n={served.size})",
                "cat": "serve",
                "ph": "X",
                "ts": served.start_time * 1e6,
                "dur": served.service_time * 1e6,
                "pid": 0,
                "tid": served.worker_id + 1,
                "args": {
                    "batch": served.batch_id,
                    "size": served.size,
                    "model_version": served.model_version,
                    "hot_lookups": served.hot_lookups,
                    "cold_lookups": served.cold_lookups,
                },
            }
        )
    for t in swap_times:
        events.append(
            {
                "name": "hot swap",
                "cat": "swap",
                "ph": "i",
                "ts": t * 1e6,
                "pid": 0,
                "tid": 0,
                "s": "g",
            }
        )
    for worker_id in sorted(workers):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": worker_id + 1,
                "args": {"name": f"WORKER {worker_id}"},
            }
        )
    return events


def export_serving_trace(
    path: str,
    served_batches: Sequence[ServedBatch],
    swap_times: Sequence[float] = (),
) -> int:
    """Write a serving run's Chrome trace JSON; returns event count."""
    events = serving_trace_events(served_batches, swap_times)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
    return len(events)
