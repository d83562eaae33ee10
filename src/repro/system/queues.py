"""Bounded FIFO queues for the parameter-server pipeline (paper Fig. 9).

The prefetch queue carries embedding batches from the server to the
workers; the gradient queue carries sparse gradients back.  In this
single-process reproduction the queues are deterministic data
structures (no threads): the pipeline executor interleaves server and
worker turns explicitly, which keeps the RAW-conflict experiments
bit-reproducible.  The serving micro-batcher and the fleet's
``BatchingQueue`` hold their pending work in the same queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, TypeVar

from repro.utils.validation import check_positive

__all__ = ["BoundedQueue"]

T = TypeVar("T")


class BoundedQueue(Generic[T]):
    """Deterministic bounded FIFO.

    Parameters
    ----------
    capacity:
        Maximum entries; ``put`` on a full queue raises (callers check
        ``full()`` and apply backpressure instead of blocking), as do
        ``get`` and ``peek`` on an empty one.
    """

    def __init__(self, capacity: int) -> None:
        check_positive(capacity, "capacity")
        self.capacity = int(capacity)
        self._items: Deque[T] = deque()

    def put(self, item: T) -> None:
        if self.full():
            raise OverflowError(
                f"queue full (capacity {self.capacity}); check full() first"
            )
        self._items.append(item)

    def get(self) -> T:
        if not self._items:
            raise LookupError("queue empty; check empty() first")
        return self._items.popleft()

    def peek(self) -> T:
        if not self._items:
            raise LookupError("queue empty")
        return self._items[0]

    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def empty(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)
