"""Point-to-point wired link.

A unidirectional serializing link: datagrams queue behind the
transmitter, each occupies the line for ``size · 8 / bandwidth``
seconds, then arrives ``prop_delay`` later.  Wired links are error
free (the paper's premise: on wired links virtually all loss is
congestion).  A duplex connection is two instances.

Serialization is computed, not simulated: the link keeps the time the
line frees up, so an accepted datagram's finish time is known when it
is sent, and its arrival is the one event it schedules.  A datagram
waits in ``queue`` until its start time; each ``send`` first removes
the datagrams whose start time has come, so drop-tail capacity and
ECN marking read the depth of the waiting queue.  (Between sends,
``queue`` and its ``dequeued`` count are as of the last ``send``.)
Tie rule: a datagram whose start time equals the current time has
already left the queue when a ``send`` at that time reads the depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.engine import Simulator
from repro.net.packet import Datagram
from repro.net.queues import DropTailQueue


@dataclass(slots=True)
class LinkStats:
    """Transmission counters shared by wired and wireless links.

    A wireless link counts a frame when its transmission ends, and
    derives ``offered`` and ``transmitted`` (:attr:`WirelessLink.stats`).
    A wired link counts a datagram when it accepts it: its whole
    serialization is fixed then, so ``bytes_transmitted`` and
    ``busy_time`` already include datagrams still waiting or on the
    line.  A wired link corrupts nothing, so its ``transmitted`` and
    ``delivered`` are each ``offered`` minus the queue's drops
    (:attr:`WiredLink.stats` derives them).
    """

    offered: int = 0
    transmitted: int = 0
    delivered: int = 0
    corrupted: int = 0
    bytes_transmitted: int = 0
    busy_time: float = 0.0

    def loss_rate(self) -> float:
        """Fraction of transmitted frames corrupted in flight."""
        return self.corrupted / self.transmitted if self.transmitted else 0.0


class WiredLink:
    """One direction of a wired link.

    >>> from repro.engine import Simulator
    >>> from repro.net.packet import Datagram, TcpAck
    >>> sim = Simulator()
    >>> got = []
    >>> link = WiredLink(sim, bandwidth_bps=64_000, prop_delay=0.01)
    >>> link.connect(got.append)
    >>> link.send(Datagram("FH", "MH", TcpAck(0), 40))
    True
    >>> sim.run()
    >>> len(got), round(sim.now, 6)   # 40*8/64000 + 0.01
    (1, 0.015)
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        prop_delay: float,
        queue_capacity: Optional[int] = None,
        name: str = "wired",
        ecn_threshold: Optional[int] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if prop_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay}")
        if ecn_threshold is not None and ecn_threshold < 1:
            raise ValueError(f"ecn_threshold must be >= 1, got {ecn_threshold}")
        self._sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.name = name
        self.queue: DropTailQueue[Datagram] = DropTailQueue(queue_capacity, name=f"{name}.q")
        #: ECN gateway behaviour: mark datagrams that arrive to a
        #: queue at least this deep (None = ECN off).
        self.ecn_threshold = ecn_threshold
        self.ecn_marks = 0
        #: ``offered``, ``bytes_transmitted`` and ``busy_time``.
        self._stats = LinkStats()
        self._receiver: Optional[Callable[[Datagram], None]] = None
        #: Time the line finishes its last accepted datagram.
        self._free_at = 0.0
        #: Start times of the datagrams waiting in ``queue``, in order.
        self._starts: deque[float] = deque()

    def connect(self, receiver: Callable[[Datagram], None]) -> None:
        """Set the far-end delivery callback."""
        self._receiver = receiver

    @property
    def stats(self) -> LinkStats:
        """A snapshot of the link's counters: every datagram the queue
        accepts is transmitted and delivered."""
        sent = self._stats.offered - self.queue.stats.dropped
        return replace(self._stats, transmitted=sent, delivered=sent)

    def tx_time(self, size_bytes: int) -> float:
        """Serialization time for a datagram of ``size_bytes``."""
        return size_bytes * 8 / self.bandwidth_bps

    def send(self, datagram: Datagram) -> bool:
        """Queue a datagram for transmission; False if the queue dropped it."""
        receiver = self._receiver
        if receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        sim = self._sim
        now = sim._now
        # The queue's offer/poll are inlined below, counts and all;
        # ``starts`` holds one entry per queued datagram.
        queue = self.queue
        items = queue._items
        qstats = queue.stats
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
            items.popleft()
            qstats.dequeued += 1
        stats = self._stats
        stats.offered += 1
        if self.ecn_threshold is not None and len(items) >= self.ecn_threshold:
            datagram.ecn_marked = True
            self.ecn_marks += 1
        size = datagram.size_bytes
        if queue.capacity is not None and len(items) >= queue.capacity:
            qstats.dropped += 1
            qstats.dropped_bytes += size
            return False
        qstats.enqueued += 1
        start = self._free_at
        if start > now:
            items.append(datagram)
            starts.append(start)
        else:
            # The line is idle, so the queue is empty: the datagram is
            # enqueued and dequeued at once, at a depth of 1.
            start = now
            qstats.dequeued += 1
        depth = len(items) or 1
        if depth > qstats.peak_depth:
            qstats.peak_depth = depth
        duration = size * 8 / self.bandwidth_bps
        finish = start + duration
        self._free_at = finish
        stats.bytes_transmitted += size
        stats.busy_time += duration
        sim.schedule_at(finish + self.prop_delay, receiver, datagram)
        return True
