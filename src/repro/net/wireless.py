"""The lossy wireless link.

One direction of the wireless hop.  Each link frame is expanded by the
physical-layer ``overhead_factor`` (framing, FEC, segmentation,
synchronization — the paper's W → 1.5 W rule, which turns the 19.2 kbps
raw CDPD channel into 12.8 kbps effective) and is then exposed to the
burst-error channel for exactly its airtime, so a frame can straddle a
good→bad transition.  Corrupted frames vanish (link-layer CRC drop);
the receiver never sees them.

Both directions of a hop share one :class:`~repro.channel.TwoStateChannel`
instance: a deep fade affects data and acknowledgements alike, which is
why TCP ACKs are lost in bad periods too (§4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.channel import TwoStateChannel
from repro.engine import Simulator
from repro.net.link import LinkStats
from repro.net.packet import LINK_ACK_BYTES, FrameKind, LinkFrame
from repro.net.queues import DropTailQueue

_LINK_ACK = FrameKind.LINK_ACK


@dataclass
class WirelessLinkConfig:
    """Physical parameters of one wireless hop direction.

    Defaults are the paper's wide-area (CDPD-like) values, written only
    here; the LAN study uses 2 Mbps with no framing overhead.
    """

    raw_bandwidth_bps: float = 19_200.0
    prop_delay: float = 0.002
    overhead_factor: float = 1.5
    mtu_bytes: int = 128

    def __post_init__(self) -> None:
        if self.raw_bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.prop_delay < 0:
            raise ValueError("propagation delay must be >= 0")
        if self.overhead_factor < 1.0:
            raise ValueError("overhead factor must be >= 1")
        if self.mtu_bytes <= 0:
            raise ValueError("MTU must be positive")

    @property
    def effective_bandwidth_bps(self) -> float:
        """Goodput ceiling after overhead (the paper's tput_max)."""
        return self.raw_bandwidth_bps / self.overhead_factor

    def airtime(self, size_bytes: int) -> tuple[int, float]:
        """(on-air bytes, airtime seconds) of a frame of ``size_bytes``:
        expanded by the overhead factor and rounded to whole bytes."""
        air = int(round(size_bytes * self.overhead_factor))
        return air, air * 8 / self.raw_bandwidth_bps

    @property
    def turnaround(self) -> float:
        """From a frame's last bit to its link ACK's: propagation out,
        the ACK's airtime, propagation back."""
        return 2 * self.prop_delay + self.airtime(LINK_ACK_BYTES)[1]


class WirelessLink:
    """One direction of the wireless hop.

    ``send(frame, on_tx_complete=...)`` queues a frame; the optional
    callback fires when the frame finishes leaving the transmitter
    (whether or not the channel corrupted it) — the link-layer ARQ uses
    it to start its acknowledgement timer.  The sender is *not* told
    the corruption outcome: only the absence of a link ACK reveals it,
    as on real hardware.
    """

    def __init__(
        self,
        sim: Simulator,
        config: WirelessLinkConfig,
        channel: TwoStateChannel,
        name: str = "wireless",
    ) -> None:
        self._sim = sim
        self.config = config
        self.channel = channel
        self.name = name
        self.queue: DropTailQueue = DropTailQueue(name=f"{name}.q")
        #: Link-layer ACK frames are transmitted ahead of queued data,
        #: as a real MAC acknowledges in-band with priority — otherwise
        #: an ACK stuck behind a window of data frames looks like a
        #: loss to the other side's ARQ.
        self.ack_queue: DropTailQueue = DropTailQueue(name=f"{name}.ackq")
        #: ``delivered``, ``corrupted``, ``bytes_transmitted`` and
        #: ``busy_time``; :attr:`stats` derives the rest.
        self._stats = LinkStats()
        self._receiver: Optional[Callable[[LinkFrame], None]] = None
        self._busy = False
        # Frame sizes repeat endlessly (full fragments, the tail
        # fragment, link ACKs), so memoize the config's airtime by size.
        self._airtime_cache: dict[int, tuple[int, float]] = {}
        # Hot-path prebinds.  Simulator.schedule is never instance-
        # patched, so one bound method serves every transmission;
        # shadowing _tx_done in the instance dict skips a descriptor
        # bind per schedule.  (channel.corrupts and this link's own
        # send ARE instance-patched by the event log, so those stay
        # ordinary attribute lookups.)
        self._schedule = sim.schedule
        self._tx_done = self._tx_done

    def connect(self, receiver: Callable[[LinkFrame], None]) -> None:
        """Set the far-end delivery callback."""
        self._receiver = receiver

    @property
    def stats(self) -> LinkStats:
        """A snapshot of the link's counters: a frame is offered when a
        queue accepts or drops it, transmitted when delivered or corrupted."""
        data, acks, stats = self.queue.stats, self.ack_queue.stats, self._stats
        return replace(
            stats,
            offered=data.enqueued + data.dropped + acks.enqueued + acks.dropped,
            transmitted=stats.delivered + stats.corrupted,
        )

    def _airtime(self, size_bytes: int) -> tuple[int, float]:
        """Memoized :meth:`WirelessLinkConfig.airtime`."""
        cached = self._airtime_cache.get(size_bytes)
        if cached is None:
            cached = self._airtime_cache[size_bytes] = self.config.airtime(size_bytes)
        return cached

    def tx_time(self, size_bytes: int) -> float:
        """Airtime of a frame of ``size_bytes`` (pre-expansion)."""
        return self._airtime(size_bytes)[1]

    def send(
        self,
        frame: LinkFrame,
        on_tx_complete: Optional[Callable[[LinkFrame], None]] = None,
    ) -> None:
        """Queue a frame for transmission."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        target = self.ack_queue if frame.kind is _LINK_ACK else self.queue
        # Inlined target.offer((frame, on_tx_complete), frame.size_bytes):
        # one call per frame on the hot path.
        items = target._items
        stats = target.stats
        if target.capacity is not None and len(items) >= target.capacity:
            stats.dropped += 1
            stats.dropped_bytes += frame.size_bytes
        else:
            items.append((frame, on_tx_complete))
            stats.enqueued += 1
            depth = len(items)
            if depth > stats.peak_depth:
                stats.peak_depth = depth
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        # Inlined ack_queue.poll() / queue.poll(): this runs once per
        # frame and per idle check, and the two method calls (one
        # usually answering "empty") showed up in profiles.
        queue = self.ack_queue
        items = queue._items
        if not items:
            queue = self.queue
            items = queue._items
            if not items:
                self._busy = False
                return
        queue.stats.dequeued += 1
        frame, on_tx_complete = items.popleft()
        self._busy = True
        cached = self._airtime_cache.get(frame.size_bytes)
        if cached is None:
            cached = self._airtime(frame.size_bytes)
        air, duration = cached
        self._schedule(
            duration,
            self._tx_done,
            frame,
            on_tx_complete,
            self._sim._now,
            duration,
            air * 8,
        )

    def _tx_done(
        self,
        frame: LinkFrame,
        on_tx_complete: Optional[Callable[[LinkFrame], None]],
        start: float,
        duration: float,
        nbits: int,
    ) -> None:
        stats = self._stats
        stats.bytes_transmitted += frame.size_bytes
        stats.busy_time += duration
        corrupted = self.channel.corrupts(start, duration, nbits)
        if corrupted:
            stats.corrupted += 1
        else:
            stats.delivered += 1
            self._schedule(self.config.prop_delay, self._receiver, frame)
        if on_tx_complete is not None:
            on_tx_complete(frame)
        self._start_next()
