"""Drop-tail FIFO queues with statistics.

Every link has an input queue; the base station's queue filling up
during a bad channel period is what the source-quench scheme reacts to
(§4.2.2), so queue occupancy is observable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, Optional, TypeVar

T = TypeVar("T")


@dataclass(slots=True)
class QueueStats:
    """Counters kept by every queue."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    dropped_bytes: int = 0
    peak_depth: int = 0

    def drop_rate(self) -> float:
        """Fraction of offered packets dropped."""
        offered = self.enqueued + self.dropped
        return self.dropped / offered if offered else 0.0


class DropTailQueue(Generic[T]):
    """Bounded FIFO that drops arrivals when full (drop-tail).

    The capacity is in packets, matching ns's default DropTail
    behaviour; ``maxlen=None`` gives an unbounded queue (used for the
    single-connection experiments where the paper assumes no
    congestion on the wired network).
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self._items: deque[T] = deque()
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def offer(self, item: T, size_bytes: int = 0) -> bool:
        """Enqueue ``item``; returns False (and counts a drop) if full."""
        items = self._items
        stats = self.stats
        if self.capacity is not None and len(items) >= self.capacity:
            stats.dropped += 1
            stats.dropped_bytes += size_bytes
            return False
        items.append(item)
        stats.enqueued += 1
        depth = len(items)
        if depth > stats.peak_depth:
            stats.peak_depth = depth
        return True

    def poll(self) -> Optional[T]:
        """Dequeue the head item, or ``None`` when empty."""
        items = self._items
        if not items:
            return None
        self.stats.dequeued += 1
        return items.popleft()

    def clear(self) -> int:
        """Remove everything; returns the number of items discarded."""
        count = len(self._items)
        self._items.clear()
        return count

    def __iter__(self):
        return iter(self._items)
