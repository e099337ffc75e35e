"""Cancellable, re-armable timers on top of the event loop.

TCP's retransmission timer, snoop's local timer and the link layer's
resequencing flush timer all need the same primitive: arm for
a delay, possibly re-arm before expiry (superseding the previous
deadline), and fire a callback on expiry.  The EBSN mechanism is
literally "re-arm the rtx timer at the current timeout", so this class
is load-bearing for the paper's contribution.

Re-arming is lazy.  A restart that moves the deadline later keeps the
timer's heap entry and only records the new deadline; when that entry
comes due early, it re-schedules itself at the deadline instead of
calling back.  A run that re-arms on every ACK therefore pushes one
heap entry per deadline actually reached, not one per restart, and
leaves no cancelled entries behind.  (The ARQ's per-frame ack timeouts
are bare events, not timers: each is cancelled at most once.)
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.simulator import Simulator


class Timer:
    """A single-shot timer that can be restarted or cancelled.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim, lambda: fired.append(sim.now))
    >>> t.start(2.0)
    >>> t.restart(5.0)   # supersedes the 2.0 deadline
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "") -> None:
        self._sim = sim
        self._callback = callback
        #: The heap entry; it may be due before ``_deadline``.
        self._event: Optional[list] = None
        #: When the timer expires (meaningful only while pending).
        self._deadline = 0.0
        self.name = name
        self.expiry_count = 0

    @property
    def pending(self) -> bool:
        """True while armed and not yet expired."""
        return self._event is not None and self._event[2] is not None

    @property
    def expiry_time(self) -> Optional[float]:
        """Absolute time the timer will fire, or ``None`` if idle."""
        return self._deadline if self.pending else None

    def start(self, delay: float) -> None:
        """Arm the timer.  Raises if already pending (use restart)."""
        if self.pending:
            raise RuntimeError(f"timer {self.name!r} already pending")
        sim = self._sim
        self._deadline = sim._now + delay
        self._event = sim.schedule(delay, self._fire)

    def restart(self, delay: float) -> None:
        """Arm the timer for ``delay`` from now, superseding any pending deadline.

        A deadline later than the pending heap entry keeps that entry,
        which re-arms itself when it comes due; an earlier one (or an
        idle timer) pushes a fresh entry.
        """
        sim = self._sim
        deadline = sim._now + delay
        self._deadline = deadline
        event = self._event
        if event is not None and event[2] is not None:
            if deadline > event[0]:
                return
            sim.cancel(event)
        self._event = sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm.  A no-op if the timer is idle."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        sim = self._sim
        if self._deadline > sim._now:
            # A lazy restart moved the deadline past this entry.
            self._event = sim.schedule_at(self._deadline, self._fire)
            return
        self._event = None
        self.expiry_count += 1
        self._callback()
