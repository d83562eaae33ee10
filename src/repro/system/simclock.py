"""Minimal discrete-event simulation kernel.

The closed-form recurrence in :func:`repro.system.pipeline.pipeline_schedule`
covers the steady-state analysis of Figure 16, but studying *variable*
per-batch behaviour (stragglers from cold batches, queue-occupancy
traces, cache-warmup transients) needs an event-driven model.  This
module provides a small deterministic DES:

* :class:`Resource` — a unit-capacity server with FIFO queueing;
* :class:`Simulator` — an event loop with ties broken
  deterministically by (time, sequence number);
* :func:`simulate_pipeline_trace` — the EL-Rec 3-stage trainer
  expressed in DES form, returning per-batch timelines and
  queue-occupancy statistics.

The DES and the closed-form recurrence are cross-validated in the test
suite: for constant stage times they must agree exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["Simulator", "Resource", "PipelineTrace", "simulate_pipeline_trace"]


class Simulator:
    """Deterministic event loop.

    Events are ``(time, callback)`` pairs; simultaneous events fire in
    scheduling order.  Callbacks may schedule further events.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._counter), callback)
        )

    def run(self, max_events: int = 1_000_000) -> float:
        """Process events to exhaustion; returns the final clock."""
        while self._heap:
            if self.events_processed >= max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events; likely a scheduling loop"
                )
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            callback()
        return self.now


class Resource:
    """Unit-capacity server with FIFO queueing discipline.

    ``request(duration, on_done)`` either starts service immediately or
    queues; ``on_done`` fires when service completes.  Tracks busy time
    and queue-length statistics for utilization reports.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._busy = False
        self._queue: List[Tuple[float, Callable[[], None]]] = []
        self.busy_time = 0.0
        self.served = 0
        self.max_queue_len = 0

    def request(self, duration: float, on_done: Callable[[], None]) -> None:
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if self._busy:
            self._queue.append((duration, on_done))
            self.max_queue_len = max(self.max_queue_len, len(self._queue))
            return
        self._start(duration, on_done)

    def _start(self, duration: float, on_done: Callable[[], None]) -> None:
        self._busy = True
        self.busy_time += duration

        def finish() -> None:
            self._busy = False
            self.served += 1
            on_done()
            if self._queue and not self._busy:
                next_duration, next_done = self._queue.pop(0)
                self._start(next_duration, next_done)

        self.sim.schedule(duration, finish)

    def utilization(self, horizon: float) -> float:
        """Busy fraction over a horizon (0 when horizon is 0)."""
        return self.busy_time / horizon if horizon > 0 else 0.0


@dataclass
class PipelineTrace:
    """Outcome of an event-driven pipeline simulation."""

    finish_times: np.ndarray  # (num_batches,) completion of GPU stage
    makespan: float
    stage_utilization: Dict[str, float]
    max_prefetch_occupancy: int

    @property
    def steady_state_interval(self) -> float:
        if self.finish_times.size < 2:
            return float(self.makespan)
        return float(
            (self.finish_times[-1] - self.finish_times[0])
            / (self.finish_times.size - 1)
        )


def simulate_pipeline_trace(
    cpu_times: Sequence[float],
    transfer_times: Sequence[float],
    gpu_times: Sequence[float],
    prefetch_depth: int = 4,
) -> PipelineTrace:
    """Event-driven EL-Rec 3-stage pipeline (paper Figure 9).

    Stage resources: the CPU (server-side embedding gather + update),
    the PCIe link (H2D prefetch + D2H gradients), and the GPU (MLP +
    Eff-TT compute).  The prefetch queue bounds how far the CPU may run
    ahead of the GPU; a full queue back-pressures the CPU (the slot is
    freed when the GPU *finishes* the batch, matching the
    blocking-after-service convention of ``pipeline_schedule``).

    Parameters
    ----------
    cpu_times, transfer_times, gpu_times:
        Per-batch stage durations (equal lengths).
    prefetch_depth:
        Queue capacity between stages.
    """
    check_positive(prefetch_depth, "prefetch_depth")
    # Simulated seconds, not model state: float64 whatever the model's dtype.
    cpu = np.asarray(cpu_times, dtype=np.float64)
    pcie = np.asarray(transfer_times, dtype=np.float64)
    gpu = np.asarray(gpu_times, dtype=np.float64)
    if not (cpu.shape == pcie.shape == gpu.shape) or cpu.ndim != 1:
        raise ValueError("stage time arrays must be 1-D and equal length")
    if cpu.size == 0:
        raise ValueError("need at least one batch")
    if min(cpu.min(), pcie.min(), gpu.min()) < 0:
        raise ValueError("stage durations must be >= 0")

    num_batches = cpu.size
    sim = Simulator()
    cpu_res = Resource(sim, "cpu")
    pcie_res = Resource(sim, "pcie")
    gpu_res = Resource(sim, "gpu")

    finish = np.zeros(num_batches)
    in_flight = {"count": 0, "max": 0}
    next_batch = {"id": 0}

    def try_start_cpu() -> None:
        if next_batch["id"] >= num_batches:
            return
        if in_flight["count"] >= prefetch_depth:
            return  # backpressure: wait for a GPU completion
        batch_id = next_batch["id"]
        next_batch["id"] += 1
        in_flight["count"] += 1
        in_flight["max"] = max(in_flight["max"], in_flight["count"])
        cpu_res.request(cpu[batch_id], lambda b=batch_id: on_cpu_done(b))

    def on_cpu_done(batch_id: int) -> None:
        pcie_res.request(pcie[batch_id], lambda b=batch_id: on_transfer_done(b))
        try_start_cpu()

    def on_transfer_done(batch_id: int) -> None:
        gpu_res.request(gpu[batch_id], lambda b=batch_id: on_gpu_done(b))

    def on_gpu_done(batch_id: int) -> None:
        finish[batch_id] = sim.now
        in_flight["count"] -= 1
        try_start_cpu()

    try_start_cpu()
    makespan = sim.run()
    return PipelineTrace(
        finish_times=finish,
        makespan=makespan,
        stage_utilization={
            "cpu": cpu_res.utilization(makespan),
            "pcie": pcie_res.utilization(makespan),
            "gpu": gpu_res.utilization(makespan),
        },
        max_prefetch_occupancy=in_flight["max"],
    )
