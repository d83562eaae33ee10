"""Tests for the bounded FIFO queue."""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.serving.fleet import BatchingQueue
from repro.system.queues import BoundedQueue
from repro.system.simclock import Simulator


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(3)
        q.put(1)
        q.put(2)
        assert q.get() == 1
        assert q.get() == 2

    def test_capacity_enforced(self):
        q = BoundedQueue(1)
        q.put("a")
        assert q.full()
        with pytest.raises(OverflowError):
            q.put("b")

    def test_empty_get(self):
        q = BoundedQueue(1)
        with pytest.raises(LookupError):
            q.get()
        with pytest.raises(LookupError):
            q.peek()

    def test_peek_non_destructive(self):
        q = BoundedQueue(2)
        q.put(5)
        assert q.peek() == 5
        assert len(q) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestMultiConsumer:
    """N consumers interleaving on one queue, as the serving fleet's
    replica executors drain its one BatchingQueue."""

    def test_each_item_delivered_exactly_once_fifo(self):
        q = BoundedQueue(16)
        sim = Simulator()
        deliveries = []  # (consumer, item)

        def consumer(cid):
            if not q.empty():
                deliveries.append((cid, q.get()))

        # bursts of 3 items, then one poll per consumer each wave
        for wave in range(3):
            base = float(wave)
            sim.schedule(
                base, lambda w=wave: [q.put(3 * w + i) for i in range(3)]
            )
            for cid in range(3):
                sim.schedule(base + 0.1 + cid * 0.01,
                             lambda c=cid: consumer(c))
        sim.run()
        items = [item for _, item in deliveries]
        assert sorted(items) == list(range(len(items)))  # no duplicates
        assert items == sorted(items)  # FIFO across all consumers
        # every consumer actually took part
        assert {cid for cid, _ in deliveries} == {0, 1, 2}

    def test_peek_never_transfers_ownership_across_consumers(self):
        q = BoundedQueue(4)
        q.put("x")
        # consumer A peeks, consumer B gets: B owns the item, and A's
        # subsequent get sees the queue state honestly.
        assert q.peek() == "x"
        assert q.get() == "x"
        with pytest.raises(LookupError):
            q.get()


class BoundedQueueMachine(RuleBasedStateMachine):
    """Any sequence of queue operations against a deque held to the
    same capacity: same items out, same errors, same size."""

    def __init__(self):
        super().__init__()
        self.oracle = deque()
        self.capacity = 0
        self.issued = 0

    def make(self, capacity):
        return BoundedQueue(capacity)

    def next_item(self):
        self.issued += 1
        return self.issued

    @initialize(capacity=st.integers(min_value=1, max_value=5))
    def build(self, capacity):
        self.capacity = capacity
        self.queue = self.make(capacity)

    @rule()
    def put(self):
        item = self.next_item()
        if len(self.oracle) >= self.capacity:
            with pytest.raises(OverflowError):
                self.queue.put(item)
        else:
            self.queue.put(item)
            self.oracle.append(item)

    @rule()
    def get(self):
        if not self.oracle:
            with pytest.raises(LookupError):
                self.queue.get()
        else:
            assert self.queue.get() == self.oracle.popleft()

    @rule()
    def peek(self):
        if not self.oracle:
            with pytest.raises(LookupError):
                self.queue.peek()
        else:
            assert self.queue.peek() == self.oracle[0]

    @invariant()
    def agrees_with_the_oracle(self):
        assert len(self.queue) == len(self.oracle)
        assert self.queue.empty() == (not self.oracle)
        assert self.queue.full() == (len(self.oracle) >= self.capacity)


class BatchingQueueMachine(BoundedQueueMachine):
    """The fleet's queue: the same FIFO plus a head insert for redirects
    that the capacity bound does not refuse."""

    def __init__(self):
        super().__init__()
        self.redirects = 0
        self.max_depth = 0

    def make(self, capacity):
        return BatchingQueue(capacity)

    @rule()
    def put(self):
        super().put()
        self.max_depth = max(self.max_depth, len(self.oracle))

    @rule()
    def put_front(self):
        item = self.next_item()
        self.queue.put_front(item)
        self.oracle.appendleft(item)
        self.redirects += 1
        self.max_depth = max(self.max_depth, len(self.oracle))

    @invariant()
    def counts_redirects_and_depth(self):
        assert self.queue.redirect_puts == self.redirects
        assert self.queue.max_depth == self.max_depth


_MACHINE_SETTINGS = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestBoundedQueueMachine = BoundedQueueMachine.TestCase
TestBoundedQueueMachine.settings = _MACHINE_SETTINGS
TestBatchingQueueMachine = BatchingQueueMachine.TestCase
TestBatchingQueueMachine.settings = _MACHINE_SETTINGS
