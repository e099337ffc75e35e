"""The shared downlink radio: one transmitter, many mobile hosts.

Models the base station of the CSDP study: a single radio serving N
destinations, each behind its own independently fading channel.  The
radio transmits one frame at a time (stop-and-wait at the frame level:
the outcome — link ACK or silence — is known one turnaround after the
frame leaves the air, as on a half-duplex MAC).  A failed frame backs
off and is retried up to RTmax times, as the ARQ timed to its link
does; what the radio does *while* a frame backs off is the scheduler's
decision, and that is exactly where FIFO loses to round-robin and CSDP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

import random

from repro.channel import TwoStateChannel
from repro.csdp.scheduling import Scheduler
from repro.engine import Simulator
from repro.linklayer import ArqConfig
from repro.net.ip import Fragmenter, Reassembler
from repro.net.packet import LINK_ACK_BYTES, Datagram, Fragment
from repro.net.wireless import WirelessLinkConfig

#: Seconds the radio's reassembler holds a partial datagram.
REASSEMBLY_TIMEOUT = 60.0


@dataclass
class RadioStats:
    """Counters for the shared radio."""

    frames_accepted: int = 0
    attempts: int = 0
    attempt_failures: int = 0
    frames_discarded: int = 0
    siblings_dropped: int = 0
    idle_blocked_time: float = 0.0
    busy_time: float = 0.0


@dataclass
class _QueuedFrame:
    fragment: Fragment
    attempts: int = 0
    ready_at: float = 0.0


class DownlinkRadio:
    """Base-station radio multiplexing N per-destination queues."""

    def __init__(
        self,
        sim: Simulator,
        config: WirelessLinkConfig,
        channels: Dict[str, TwoStateChannel],
        scheduler: Scheduler,
        rng: random.Random,
        deliver: Callable[[Datagram], None],
    ) -> None:
        if not channels:
            raise ValueError("need at least one destination channel")
        self._sim = sim
        self.config = config
        self.channels = channels
        self.scheduler = scheduler
        self._rng = rng
        self.deliver = deliver
        self._ack_airtime = config.airtime(LINK_ACK_BYTES)
        self.turnaround = config.turnaround
        # The attempt budget and backoff bounds (s) of the link's ARQ.
        arq = ArqConfig.for_link(config)
        self._rtmax = arq.rtmax
        self._backoff = (arq.backoff_min, arq.backoff_max)
        self.fragmenter = Fragmenter(config.mtu_bytes)
        self.reassembler = Reassembler(sim, timeout=REASSEMBLY_TIMEOUT, name="radio")
        self.queues: Dict[str, Deque[_QueuedFrame]] = {d: deque() for d in channels}
        self.stats = RadioStats()
        self._busy = False
        self._wake_event: Optional[list] = None
        self._blocked_since: Optional[float] = None

    # ------------------------------------------------------------------

    def tx_time(self, size_bytes: int) -> float:
        """Airtime of one frame of ``size_bytes``."""
        return self.config.airtime(size_bytes)[1]

    def send_datagram(self, datagram: Datagram) -> None:
        """Queue a datagram for its destination."""
        dest = datagram.dst
        if dest not in self.queues:
            raise KeyError(f"radio has no channel to {dest!r}")
        for fragment in self.fragmenter.fragment(datagram):
            self.queues[dest].append(_QueuedFrame(fragment))
            self.stats.frames_accepted += 1
            self.scheduler.note_arrival(dest)
        self._pump()

    # ------------------------------------------------------------------

    def _pump(self) -> None:
        if self._busy:
            return
        now = self._sim.now
        ready = []
        waiting = []
        for dest, queue in self.queues.items():
            if queue:
                (ready if queue[0].ready_at <= now else waiting).append(dest)
        if not ready and not waiting:
            self._note_unblocked()
            return
        choice = self.scheduler.select(ready, waiting, now)
        if choice is None:
            self._note_blocked()
            self._schedule_wake(waiting, now)
            return
        self._note_unblocked()
        self._transmit(choice)

    def _note_blocked(self) -> None:
        if self._blocked_since is None:
            self._blocked_since = self._sim.now

    def _note_unblocked(self) -> None:
        if self._blocked_since is not None:
            self.stats.idle_blocked_time += self._sim.now - self._blocked_since
            self._blocked_since = None

    def _schedule_wake(self, waiting, now: float) -> None:
        candidates = [self.queues[d][0].ready_at for d in waiting]
        hint = self.scheduler.earliest_retry(now)
        if hint is not None and hint > now:
            candidates.append(hint)
        if not candidates:
            candidates.append(now + 0.05)
        wake_at = max(min(candidates), now + 1e-6)
        if self._wake_event is not None:
            self._sim.cancel(self._wake_event)
        self._wake_event = self._sim.schedule_at(wake_at, self._pump)

    def _transmit(self, dest: str) -> None:
        queued = self.queues[dest].popleft()
        queued.attempts += 1
        self._busy = True
        air, airtime = self.config.airtime(queued.fragment.size_bytes)
        self.stats.attempts += 1
        self.stats.busy_time += airtime

        channel = self.channels[dest]
        now = self._sim.now
        frame_ok = not channel.corrupts(now, airtime, air * 8)
        ack_ok = False
        if frame_ok:
            ack_start = now + airtime + self.config.prop_delay
            ack_air, ack_time = self._ack_airtime
            ack_ok = not channel.corrupts(ack_start, ack_time, ack_air * 8)
        self._sim.schedule(
            airtime + self.turnaround,
            self._attempt_done,
            dest,
            queued,
            frame_ok,
            ack_ok,
        )

    def _attempt_done(
        self, dest: str, queued: _QueuedFrame, frame_ok: bool, ack_ok: bool
    ) -> None:
        self._busy = False
        self.scheduler.on_result(dest, ack_ok, self._sim.now)

        if frame_ok:
            # Receiver has it regardless of whether the ACK survived;
            # the reassembler's duplicate guard absorbs re-deliveries.
            datagram = self.reassembler.add(queued.fragment)
            if datagram is not None:
                self.deliver(datagram)

        if ack_ok:
            self.scheduler.note_departure(dest)
        else:
            self.stats.attempt_failures += 1
            if queued.attempts >= self._rtmax:
                self._discard(dest, queued)
            else:
                queued.ready_at = self._sim.now + self._rng.uniform(*self._backoff)
                self.queues[dest].appendleft(queued)
        self._pump()

    def _discard(self, dest: str, queued: _QueuedFrame) -> None:
        self.stats.frames_discarded += 1
        self.scheduler.note_departure(dest)
        uid = queued.fragment.datagram.uid
        queue = self.queues[dest]
        before = len(queue)
        self.queues[dest] = deque(
            qf for qf in queue if qf.fragment.datagram.uid != uid
        )
        dropped = before - len(self.queues[dest])
        self.stats.siblings_dropped += dropped
        for _ in range(dropped):
            self.scheduler.note_departure(dest)
