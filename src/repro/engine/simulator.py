"""Event loop for discrete-event simulation.

Time is a float in seconds.  Events scheduled for the same instant are
executed in scheduling order (a monotonically increasing sequence
number breaks ties), which makes runs fully deterministic given
deterministic callbacks.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Optional

#: Simulated-time horizon (s) of every study run: a run still going
#: at this time stops there and reports itself incomplete, so a stuck
#: transfer is an error, not a hang.
MAX_SIM_TIME = 50_000.0


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class WallClockExceeded(SimulationError):
    """A run overshot its wall-clock budget (a hung/runaway simulation).

    Raised cooperatively by :meth:`Simulator.run` between events when a
    ``wall_timeout`` was given.  The fault-tolerant campaign layer maps
    this to a structured ``timeout`` fault; standalone callers get a
    clear exception instead of an indefinite hang.
    """

    def __init__(self, elapsed: float, budget: float, events: int) -> None:
        super().__init__(
            f"simulation exceeded its wall-clock budget: {elapsed:.2f}s "
            f"elapsed (budget {budget:g}s) after {events} events"
        )
        self.elapsed = elapsed
        self.budget = budget
        self.events = events


class Simulator:
    """Binary-heap discrete-event simulator.

    ``schedule`` and ``schedule_at`` return the event's heap entry, a
    list ``[time, seq, callback, args]``, which is the handle
    :meth:`cancel` takes.  Sift comparisons stay in C: ``seq`` is
    unique, so list comparison never reaches the callback.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    #: Events between wall-clock watchdog checks.  Checking the OS
    #: clock every event would cost more than the event dispatch; at
    #: this stride the overhead is unmeasurable while a runaway run is
    #: still caught within milliseconds of its deadline.
    WATCHDOG_STRIDE = 2048

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._cancelled_count: int = 0
        #: Perf counters (observability only — never consulted by the
        #: run loop, so they cannot perturb results).
        self.events_executed: int = 0
        self.run_wall_seconds: float = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def heap_pushes(self) -> int:
        """Entries pushed so far: each schedule call takes one ``seq``."""
        return self._seq

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails too: it would break heap order
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, event: list) -> None:
        """Cancel a scheduled event so the loop skips it.

        Cancellation is lazy: the callback slot is cleared and the
        entry stays in the heap until it reaches the head, while
        ``_cancelled_count`` counts it so :meth:`pending_count` stays
        O(1).  The loop clears the slot of an entry it executes too, so
        cancelling an executed or already-cancelled event is a no-op.
        """
        if event[2] is not None:
            event[2] = None
            self._cancelled_count += 1

    def stop(self) -> None:
        """Stop the run loop after the currently executing event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        wall_timeout: Optional[float] = None,
    ) -> None:
        """Run until the heap drains, ``until`` is reached, or ``stop()``.

        ``until`` is inclusive: events at exactly that time execute, and
        the clock is advanced to ``until`` when the limit is hit with
        events still pending.  ``wall_timeout`` is a *real-time*
        watchdog: when the call has run longer than that many
        wall-clock seconds, it aborts with :class:`WallClockExceeded`
        (checked every ``WATCHDOG_STRIDE`` events, so the run stays
        bit-identical to an unwatched one right up to the abort).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        executed = 0
        monotonic = time.monotonic
        deadline = monotonic() + wall_timeout if wall_timeout is not None else None
        # Watchdog countdown: reloads at WATCHDOG_STRIDE so the clock is
        # checked exactly when `executed` hits a positive stride multiple
        # (identical abort points to the old modulo check, without the
        # per-event modulo).  -1 disables the branch body when unwatched.
        countdown = self.WATCHDOG_STRIDE if deadline is not None else -1
        # Local aliases for the hot loop.  `heap` stays valid across
        # callbacks because schedule()/schedule_at() push into the same
        # list object.
        heap = self._heap
        pop = heapq.heappop
        # Simulation times are finite, so `> inf` is never taken when
        # no limit was given.
        time_limit = math.inf if until is None else until
        start_wall = monotonic()
        try:
            while True:
                if countdown >= 0:
                    if countdown == 0:
                        countdown = self.WATCHDOG_STRIDE - 1
                        if monotonic() > deadline:
                            raise WallClockExceeded(
                                monotonic() - (deadline - wall_timeout),
                                wall_timeout,
                                executed,
                            )
                    else:
                        countdown -= 1
                # Discard cancelled entries at the head; the loop's
                # else branch runs when the heap drains.
                while heap:
                    entry = heap[0]
                    callback = entry[2]
                    if callback is not None:
                        break
                    pop(heap)
                    self._cancelled_count -= 1
                else:
                    if until is not None and self._now < until:
                        self._now = until
                    break
                if entry[0] > time_limit:
                    self._now = until
                    break
                # The head is known live: pop, mark executed, dispatch.
                pop(heap)
                entry[2] = None
                self._now = entry[0]
                callback(*entry[3])
                executed += 1
                if self._stopped:
                    break
        finally:
            self._running = False
            self.events_executed += executed
            self.run_wall_seconds += monotonic() - start_wall

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        O(1): the heap length minus the lazily-deleted corpse count,
        both maintained incrementally.
        """
        return len(self._heap) - self._cancelled_count

    def events_per_sec(self) -> float:
        """Dispatch throughput over all :meth:`run` calls so far.

        0.0 until the first run() completes (or if the wall time was
        too short to measure).
        """
        if self.run_wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.run_wall_seconds

    def perf_counters(self) -> dict:
        """Snapshot of the per-run performance counters.

        Pure observability: reading these never changes simulation
        behaviour, and the loop never branches on them.
        """
        return {
            "events_executed": self.events_executed,
            "heap_pushes": self.heap_pushes,
            "run_wall_seconds": self.run_wall_seconds,
            "events_per_sec": self.events_per_sec(),
        }
