"""Unit tests for the drop-tail queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.queues import DropTailQueue


class TestBasics:
    def test_fifo_order(self):
        q = DropTailQueue()
        for i in range(5):
            q.offer(i)
        assert [q.poll() for _ in range(5)] == list(range(5))

    def test_poll_empty_returns_none(self):
        assert DropTailQueue().poll() is None

    def test_clear(self):
        q = DropTailQueue()
        for i in range(3):
            q.offer(i)
        assert q.clear() == 3
        assert q.is_empty

    def test_iteration(self):
        q = DropTailQueue()
        for i in range(3):
            q.offer(i)
        assert list(q) == [0, 1, 2]


class TestCapacityAndDrops:
    def test_unbounded_by_default(self):
        q = DropTailQueue()
        for i in range(10_000):
            assert q.offer(i)
        assert not q.is_full

    def test_drop_when_full(self):
        q = DropTailQueue(capacity=2)
        assert q.offer(1)
        assert q.offer(2)
        assert not q.offer(3)
        assert list(q) == [1, 2]

    def test_drop_stats(self):
        q = DropTailQueue(capacity=1)
        q.offer("a", size_bytes=100)
        q.offer("b", size_bytes=200)
        assert q.stats.dropped == 1
        assert q.stats.dropped_bytes == 200
        assert q.stats.drop_rate() == pytest.approx(0.5)

    def test_space_frees_after_poll(self):
        q = DropTailQueue(capacity=1)
        q.offer(1)
        q.poll()
        assert q.offer(2)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_peak_depth_tracked(self):
        q = DropTailQueue()
        for i in range(7):
            q.offer(i)
        q.poll()
        q.offer(99)
        assert q.stats.peak_depth == 7

    def test_drop_rate_empty_queue(self):
        assert DropTailQueue().stats.drop_rate() == 0.0


class TestPropertyBased:
    @given(st.lists(st.integers(), max_size=200), st.integers(min_value=1, max_value=50))
    def test_never_exceeds_capacity_and_preserves_order(self, items, capacity):
        q = DropTailQueue(capacity=capacity)
        accepted = []
        for item in items:
            if q.offer(item):
                accepted.append(item)
            assert len(q) <= capacity
        drained = []
        while (item := q.poll()) is not None:
            drained.append(item)
        assert drained == accepted[: len(drained)]
        assert q.stats.enqueued == len(accepted)
        assert q.stats.dropped == len(items) - len(accepted)
