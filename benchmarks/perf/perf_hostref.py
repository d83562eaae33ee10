"""Host-speed reference: a fixed numpy kernel mix timed beside every op.

The box this benchmark was defined on changes speed under the
benchmark's feet: for minutes at a time every kernel — GEMM, batched
small GEMM, streaming arithmetic, gathers, segmented reductions — runs
15-30 % slower, then recovers (other tenants of the host).  Medians of
raw CPU time therefore moved by an interquartile range of 12-17 % of
their median between back-to-back runs of the same commit.  Those
swings hit a plain numpy kernel mix the same way (correlation 0.9 over
seven minutes), so the runner times this mix (~165 ms) before and after
every op and reports CPU time *relative to it*:
``op_cpu * NOMINAL_S / median(reference_cpu)``.  Same-seed runs then
repeat within 1-3 %.

What is in the mix matters: without the segmented reduce and the sort
(the scatter-add and ``np.unique`` shapes of the embedding paths) the
reference slowed less than ``ps_pipeline`` did and left 4-5 % of noise.

The mix is plain numpy on private arrays and calls nothing under
``src/``, so a change to the repository cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HostReference"]


class HostReference:
    """Gather, segmented reduce, sort, streaming arithmetic, batched GEMM, GEMM."""

    #: CPU seconds one :meth:`sample` took when the benchmark was
    #: defined; the unit every normalised time is expressed in.
    NOMINAL_S = 0.165
    #: Passes over the mix per sample.  The host's speed also flickers
    #: by +-8 % from one 20 ms stretch to the next; ops last 0.4-1.5 s
    #: and average that out, so a sample has to be long enough to as well.
    PASSES = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal((50_000, 64))
        self._rows = rng.integers(0, 50_000, size=60_000)
        self._x = rng.standard_normal(1_000_000)
        self._y = rng.standard_normal(1_000_000)
        self._a = rng.standard_normal((4096, 8, 32))
        self._b = rng.standard_normal((4096, 32, 16))
        self._m = rng.standard_normal((512, 512))
        self._segments = np.arange(0, 60_000, 10)

    def sample(self) -> float:
        """Run the mix once; return its CPU seconds."""
        start = time.process_time()
        for _ in range(self.PASSES):
            gathered = self._table[self._rows]
            np.add.reduceat(gathered, self._segments, axis=0)
            np.unique(self._rows)
            self._x * self._y + self._x
            self._a @ self._b
            self._m @ self._m
        return time.process_time() - start
