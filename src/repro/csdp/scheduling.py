"""Link-level packet schedulers for the shared downlink radio.

The scheduler's job: given the set of destinations that have a frame
ready to transmit, pick one (or none).  It also observes per-attempt
outcomes, which is all a real base station can see — CSDP's "channel
state predictor" is exactly such an observation history.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence


class Scheduler(abc.ABC):
    """Chooses which destination the radio serves next."""

    @abc.abstractmethod
    def select(
        self, ready: Sequence[str], waiting: Sequence[str], now: float
    ) -> Optional[str]:
        """Pick a destination to serve, or ``None`` to idle.

        ``ready`` — destinations whose head frame may transmit now;
        ``waiting`` — destinations with frames still in retry backoff.
        A strict-FIFO scheduler idles when the globally oldest frame is
        in ``waiting`` (head-of-line blocking); a CSDP scheduler may
        idle when every ready destination is predicted faded.
        """

    def note_arrival(self, dest: str) -> None:
        """A frame for ``dest`` joined the radio's queues."""

    def note_departure(self, dest: str) -> None:
        """A frame for ``dest`` left them (acknowledged or discarded)."""

    def on_result(self, dest: str, success: bool, now: float) -> None:
        """Observe the outcome of one link-level attempt."""

    def earliest_retry(self, now: float) -> Optional[float]:
        """If :meth:`select` declined, when should the radio re-ask?"""
        return None


class FifoScheduler(Scheduler):
    """Strict global FIFO — the head-of-line-blocking baseline.

    The radio tells the scheduler the arrival order via
    :meth:`note_arrival`; FIFO always picks the destination owning the
    globally oldest queued frame, even if that destination is deep in
    a fade (its frame will be retried until the ARQ gives up, blocking
    everyone else — the pathology [9] identifies).
    """

    def __init__(self) -> None:
        self._order: List[tuple[int, str]] = []
        self._counter = 0

    def note_arrival(self, dest: str) -> None:
        """Record a frame arrival (preserves global FIFO order)."""
        self._order.append((self._counter, dest))
        self._counter += 1

    def note_departure(self, dest: str) -> None:
        """Remove the oldest entry for ``dest`` (frame acked/discarded)."""
        for i, (_, d) in enumerate(self._order):
            if d == dest:
                del self._order[i]
                return

    def select(
        self, ready: Sequence[str], waiting: Sequence[str], now: float
    ) -> Optional[str]:
        """Serve the globally oldest frame, or block behind it."""
        ready_set = set(ready)
        waiting_set = set(waiting)
        for _, dest in self._order:
            if dest in ready_set:
                return dest
            if dest in waiting_set:
                # The oldest frame is backing off: strict FIFO blocks
                # the whole radio behind it.
                return None
        # Order list empty or stale: fall back to first ready.
        return ready[0] if ready else None


class RoundRobinScheduler(Scheduler):
    """Cycle among destinations with ready frames."""

    def __init__(self) -> None:
        self._last: Optional[str] = None

    def select(
        self, ready: Sequence[str], waiting: Sequence[str], now: float
    ) -> Optional[str]:
        """Serve the next non-empty destination in rotation."""
        if not ready:
            return None
        ordered = sorted(ready)
        if self._last is None or self._last not in ordered:
            choice = ordered[0]
        else:
            index = (ordered.index(self._last) + 1) % len(ordered)
            choice = ordered[index]
        self._last = choice
        return choice


class CsdpScheduler(Scheduler):
    """Round-robin that avoids destinations predicted to be faded.

    The predictor is observation-driven: a failed attempt marks the
    destination *bad*; a bad destination is skipped until
    ``probe_interval`` seconds have passed, after which one probe
    transmission is allowed (success clears the mark).  A smaller
    probe interval reacts faster but wastes more probes — the accuracy
    trade-off the paper's §2 points at.
    """

    def __init__(self, probe_interval: float = 0.5) -> None:
        if probe_interval <= 0:
            raise ValueError(f"probe_interval must be positive, got {probe_interval}")
        self.probe_interval = probe_interval
        self._rr = RoundRobinScheduler()
        #: dest -> time the destination may next be tried.
        self._banned_until: Dict[str, float] = {}
        self.probes_sent = 0
        self.skips = 0

    def _usable(self, dest: str, now: float) -> bool:
        return now >= self._banned_until.get(dest, 0.0)

    def select(
        self, ready: Sequence[str], waiting: Sequence[str], now: float
    ) -> Optional[str]:
        """Round-robin over destinations not predicted to be faded."""
        if not ready:
            return None
        usable = [d for d in ready if self._usable(d, now)]
        self.skips += len(ready) - len(usable)
        if not usable:
            return None  # everyone ready is predicted faded: idle
        choice = self._rr.select(usable, [], now)
        if choice is not None and choice in self._banned_until:
            # First transmission after a ban is a probe.
            self.probes_sent += 1
        return choice

    def on_result(self, dest: str, success: bool, now: float) -> None:
        """Update the predictor: failure bans, success clears."""
        if success:
            self._banned_until.pop(dest, None)
        else:
            self._banned_until[dest] = now + self.probe_interval

    def earliest_retry(self, now: float) -> Optional[float]:
        """When the soonest ban expires (the radio's wake-up hint)."""
        if not self._banned_until:
            return None
        return min(self._banned_until.values())
