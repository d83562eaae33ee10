"""Minimal deterministic discrete-event loop.

:class:`Simulator` is the clock of the serving fleet
(:mod:`repro.serving.fleet`): events are ``(time, callback)`` pairs,
ties broken by scheduling order, and callbacks may schedule further
events.  The §V training pipeline is timed by the closed-form
recurrence :func:`repro.system.pipeline.pipeline_schedule` instead.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

__all__ = ["Simulator"]


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
