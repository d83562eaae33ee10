"""SLO accounting for the serving loop.

The per-request and per-batch records the serving event loop emits,
and :meth:`SLOReport.from_records`, which condenses one run's records
into the p50/p95/p99 latency, throughput, rejection, and
cache-effectiveness summary an operator would alert on.  Percentiles
come from the shared :mod:`repro.utils.timer` implementation so serving
reports and kernel benches can never disagree on definition.

Also exports the served-batch timeline as Chrome Trace Event JSON, for
the ``chrome://tracing`` / Perfetto workflow.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.dataloader import Batch
from repro.utils.timer import percentiles

__all__ = [
    "RequestResult",
    "ServedBatch",
    "SLOReport",
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

    @classmethod
    def from_records(
        cls,
        results: Sequence[RequestResult],
        served_batches: Sequence[ServedBatch],
        rejected: int,
        num_swaps: int,
        duration: float,
        max_queue_depth: int,
        num_hot_rows: int,
    ) -> "SLOReport":
        """One run's report, computed from the run's own records.

        ``results`` are in completion order (the mean latency is summed
        in that order); ``served_batches`` supply the batch sizes and
        the hot/cold lookup split.  Every latency percentile and the
        mean are zero for a run that completed nothing.
        """
        latencies = [float(r.latency) for r in results]
        if latencies and min(latencies) < 0:
            raise ValueError(f"latency must be >= 0, got {min(latencies)}")
        pct = (
            percentiles(latencies) if latencies
            else {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}
        )
        completed = len(latencies)
        sizes = [b.size for b in served_batches]
        hot = sum(b.hot_lookups for b in served_batches)
        cold = sum(b.cold_lookups for b in served_batches)
        return cls(
            offered=completed + rejected,
            completed=completed,
            rejected=rejected,
            duration=duration,
            throughput_rps=completed / duration if duration > 0 else 0.0,
            latency_p50=pct[50.0],
            latency_p95=pct[95.0],
            latency_p99=pct[99.0],
            latency_mean=sum(latencies) / completed if completed else 0.0,
            latency_max=max(latencies, default=0.0),
            num_batches=len(sizes),
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            max_queue_depth=max_queue_depth,
            cache_hit_rate=hot / (hot + cold) if hot + cold else 0.0,
            num_hot_rows=num_hot_rows,
            num_swaps=num_swaps,
            requests_per_version=dict(
                Counter(r.model_version for r in results)
            ),
        )

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
