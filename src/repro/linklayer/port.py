"""A node's attachment to the wireless hop.

One :class:`WirelessPort` bundles everything a host does at the link
layer of the wireless hop:

* **outgoing**: fragment datagrams to the MTU and transmit — either
  fire-and-forget (``PLAIN``, basic TCP experiments) or under a
  sliding-window ARQ with link ACKs, random backoff, and RTmax discard
  (``ARQ``, the paper's local recovery);
* **incoming**: link-acknowledge received data frames (in ARQ mode),
  reassemble fragments all-or-nothing, and hand completed datagrams up
  to the node;
* **feedback**: surface every failed link-level attempt and discard to
  :class:`FeedbackHooks` — the base station's EBSN and source-quench
  generators attach here.

The ARQ transmitter keeps up to ``window`` frames unacknowledged (1 =
stop-and-wait).  Each transmitted frame starts its own acknowledgement
timer when it finishes leaving the radio; an unacknowledged frame is
retransmitted after a random backoff, with retransmissions taking
priority over new frames, until ``rtmax`` total attempts.  Because
failing frames keep occupying window slots, a deep fade stalls the
queue instead of pouring it into the fade — the head-of-line behaviour
the CSDP paper [9] describes for FIFO link scheduling.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.engine import Simulator, Timer
from repro.linklayer.arq import ArqConfig, ArqStats
from repro.net.ip import Fragmenter, Reassembler
from repro.net.packet import (
    Datagram,
    Fragment,
    FrameKind,
    LinkFrame,
    data_frame,
    link_ack_frame,
    skip_frame,
)
from repro.net.wireless import WirelessLink


class LinkLayerMode(enum.Enum):
    """How the port transmits over the wireless hop."""

    #: Fire-and-forget: corrupted frames are simply lost (basic TCP).
    PLAIN = "plain"
    #: Sliding-window local recovery with link ACKs (the paper's §4.2.1).
    ARQ = "arq"


class FeedbackHooks:
    """Callbacks raised by a port's ARQ machinery.

    The base class is all no-ops; the EBSN generator
    (:class:`repro.core.ebsn.EbsnGenerator`) and the source-quench
    generator override what they need.
    """

    def on_attempt_failed(self, fragment: Fragment, attempt: int) -> None:
        """A link-level transmission attempt got no acknowledgement."""

    def on_frame_discarded(self, fragment: Fragment) -> None:
        """A frame exhausted RTmax attempts and was dropped."""

    def on_queue_depth(self, depth: int) -> None:
        """The transmit queue depth changed (after an enqueue)."""

    def on_recovered(self) -> None:
        """A link ACK arrived — the channel is passing frames again."""


@dataclass(slots=True)
class _OutstandingFrame:
    """ARQ bookkeeping for one unacknowledged frame."""

    frame: LinkFrame
    attempts: int = 0
    ack_event: Optional[list] = None
    backoff_event: Optional[list] = None

    def cancel_timers(self, sim: Simulator) -> None:
        if self.ack_event is not None:
            sim.cancel(self.ack_event)
            self.ack_event = None
        if self.backoff_event is not None:
            sim.cancel(self.backoff_event)
            self.backoff_event = None


# Module-level aliases: enum member access costs a class-attribute
# lookup per frame on the receive path; a plain global is cheaper.
_LINK_ACK = FrameKind.LINK_ACK
_SKIP = FrameKind.SKIP
_ARQ = LinkLayerMode.ARQ


class WirelessPort:
    """One endpoint of the wireless hop (base station or mobile host)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        out_link: WirelessLink,
        deliver: Callable[[Datagram], None],
        mode: LinkLayerMode = LinkLayerMode.PLAIN,
        arq_config: Optional[ArqConfig] = None,
        rng: Optional[random.Random] = None,
        feedback: Optional[FeedbackHooks] = None,
        reassembly_timeout: float = 30.0,
    ) -> None:
        if mode is LinkLayerMode.ARQ and rng is None:
            raise ValueError("ARQ mode needs an rng for random backoff")
        self._sim = sim
        self.name = name
        self.out_link = out_link
        self.deliver = deliver
        self.mode = mode
        self.arq_config = arq_config or ArqConfig()
        self._rng = rng
        self.feedback = feedback = feedback or FeedbackHooks()
        # The two hooks raised per frame, bound once; None where the
        # feedback class keeps the base class's no-op.
        hooks = type(feedback)
        self._on_queue_depth = (
            None if hooks.on_queue_depth is FeedbackHooks.on_queue_depth
            else feedback.on_queue_depth
        )
        self._on_recovered = (
            None if hooks.on_recovered is FeedbackHooks.on_recovered
            else feedback.on_recovered
        )

        self.fragmenter = Fragmenter(out_link.config.mtu_bytes)
        self.reassembler = Reassembler(
            sim, timeout=reassembly_timeout, name=f"{name}.reasm"
        )
        self.stats = ArqStats()

        # ARQ transmitter state.
        self._pending: Deque[Fragment] = deque()
        self._outstanding: Dict[int, _OutstandingFrame] = {}
        self._tx_seq = 0

        # ARQ receiver resequencing state (in-order delivery); None in
        # the buffer marks a SKIP slot.
        self._rx_expected = 0
        self._rx_buffer: Dict[int, Optional[Fragment]] = {}
        self._flush_timer = Timer(sim, self._flush_gap, name=f"{name}.flush")
        self._flush_timeout = self.arq_config.derived_flush()

        # Hot-path prebinds.  Simulator.schedule is never instance-
        # patched; shadowing _on_tx_complete and _on_ack_timeout in the
        # instance dict hands out the same bound method every time
        # instead of binding a fresh one per frame.  (_transmit stays an
        # attribute lookup — the validation checkers instance-patch it.)
        self._schedule = sim.schedule
        self._on_tx_complete = self._on_tx_complete
        self._on_ack_timeout = self._on_ack_timeout

    # ------------------------------------------------------------------
    # Outgoing path
    # ------------------------------------------------------------------

    def send_datagram(self, datagram: Datagram) -> None:
        """Fragment and transmit a datagram over the wireless hop."""
        fragments = self.fragmenter.fragment(datagram)
        on_queue_depth = self._on_queue_depth
        if self.mode is LinkLayerMode.PLAIN:
            send = self.out_link.send
            for fragment in fragments:
                send(data_frame(fragment))
            if on_queue_depth is not None:
                on_queue_depth(len(self.out_link.queue))
        else:
            self._pending.extend(fragments)
            self.stats.frames_accepted += len(fragments)
            if on_queue_depth is not None:
                on_queue_depth(self.queue_depth)
            self._pump()

    @property
    def queue_depth(self) -> int:
        """Frames waiting or unacknowledged at this port's transmitter."""
        if self.mode is LinkLayerMode.PLAIN:
            return len(self.out_link.queue)
        return len(self._pending) + len(self._outstanding)

    @property
    def busy(self) -> bool:
        """True while the ARQ has unacknowledged frames."""
        return bool(self._outstanding)

    def _pump(self) -> None:
        """Transmit new frames into free window slots."""
        pending = self._pending
        if not pending:
            return
        outstanding = self._outstanding
        window = self.arq_config.window
        stats = self.stats
        while pending and len(outstanding) < window:
            frame = data_frame(pending.popleft())
            # Field-by-field build skips the dataclass __init__ on the
            # per-frame hot path (all defaults spelled out).
            entry = _OutstandingFrame.__new__(_OutstandingFrame)
            entry.frame = frame
            entry.attempts = 0
            entry.ack_event = None
            entry.backoff_event = None
            frame.link_seq = self._tx_seq
            self._tx_seq += 1
            outstanding[frame.uid] = entry
            stats.first_transmissions += 1
            self._transmit(entry)

    def _transmit(self, entry: _OutstandingFrame) -> None:
        entry.attempts += 1
        self.out_link.send(entry.frame, on_tx_complete=self._on_tx_complete)

    def _on_tx_complete(self, frame: LinkFrame) -> None:
        entry = self._outstanding.get(frame.uid)
        if entry is None:
            return
        # One bare event per attempt, not a Timer: a frame is only
        # retransmitted after its ack timeout fired, so nothing re-arms.
        entry.ack_event = self._schedule(
            self.arq_config.ack_timeout, self._on_ack_timeout, frame.uid
        )

    def _on_ack_timeout(self, uid: int) -> None:
        entry = self._outstanding.get(uid)
        if entry is None:
            return
        entry.ack_event = None
        self.stats.ack_timeouts += 1
        if entry.frame.fragment is not None:
            self.feedback.on_attempt_failed(entry.frame.fragment, entry.attempts)
        if entry.attempts >= self.arq_config.rtmax:
            self._discard(entry)
            return
        delay = self._backoff_delay()
        entry.backoff_event = self._schedule(delay, self._backoff_expired, uid)

    def _backoff_expired(self, uid: int) -> None:
        entry = self._outstanding.get(uid)
        if entry is None:
            return
        entry.backoff_event = None
        # A retry already holds its window slot, so it goes out at
        # once, and there is nothing to pump: every event that queues a
        # frame or frees a slot (``send_datagram``, an ACK, a discard)
        # pumps, so a frame still pending here has no free slot.
        self.stats.link_retransmissions += 1
        self._transmit(entry)

    def _backoff_delay(self) -> float:
        assert self._rng is not None
        cfg = self.arq_config
        return self._rng.uniform(cfg.backoff_min, cfg.backoff_max)

    def _discard(self, entry: _OutstandingFrame) -> None:
        entry.cancel_timers(self._sim)
        del self._outstanding[entry.frame.uid]
        self.stats.frames_discarded += 1
        fragment = entry.frame.fragment
        if fragment is None:
            # A SKIP marker itself exhausted its attempts; the far
            # side's flush timeout is the fallback.  Don't recurse.
            self._pump()
            return
        self.feedback.on_frame_discarded(fragment)
        self._send_skip(entry.frame.link_seq)
        self._drop_siblings(fragment.datagram.uid)
        self._pump()

    def _send_skip(self, link_seq: int) -> None:
        """Reliably tell the receiver to skip a discarded frame's slot."""
        entry = _OutstandingFrame(frame=skip_frame(link_seq))
        self._outstanding[entry.frame.uid] = entry
        self._transmit(entry)

    def _drop_siblings(self, datagram_uid: int) -> None:
        """Drop queued/outstanding fragments of an unreassemblable datagram."""
        before = len(self._pending)
        self._pending = deque(
            f for f in self._pending if f.datagram.uid != datagram_uid
        )
        self.stats.siblings_dropped += before - len(self._pending)
        doomed = [
            e
            for e in self._outstanding.values()
            if e.frame.fragment is not None
            and e.frame.fragment.datagram.uid == datagram_uid
        ]
        for entry in doomed:
            entry.cancel_timers(self._sim)
            del self._outstanding[entry.frame.uid]
            self.stats.siblings_dropped += 1
            self._send_skip(entry.frame.link_seq)

    # ------------------------------------------------------------------
    # Incoming path
    # ------------------------------------------------------------------

    def receive_frame(self, frame: LinkFrame) -> None:
        """Entry point: connect this to the incoming wireless link.

        The two per-frame cases — a link ACK releasing a window slot,
        and an in-order data frame — are inlined here; out-of-order,
        SKIP, and stale frames take the cold helpers.
        """
        kind = frame.kind
        if kind is _LINK_ACK:
            entry = self._outstanding.get(frame.acked_frame_uid or -1)
            if entry is None:
                return  # stale: its frame was already acked or discarded
            self.stats.link_acks_received += 1
            if self._on_recovered is not None:
                self._on_recovered()
            # Inlined entry.cancel_timers().
            event = entry.ack_event
            if event is not None:
                self._sim.cancel(event)
                entry.ack_event = None
            backoff = entry.backoff_event
            if backoff is not None:
                self._sim.cancel(backoff)
                entry.backoff_event = None
            del self._outstanding[entry.frame.uid]
            self._pump()
            return
        if self.mode is _ARQ:
            self.out_link.send(link_ack_frame(frame.uid))
        if kind is _SKIP:
            assert frame.link_seq is not None
            self._resequence(frame.link_seq, None)
            return
        fragment = frame.fragment
        assert fragment is not None
        seq = frame.link_seq
        if seq is None:
            datagram = self.reassembler.add(fragment)
            if datagram is not None:
                self.deliver(datagram)
            return
        if seq == self._rx_expected:
            # In-order arrival, the steady-state case.
            datagram = self.reassembler.add(fragment)
            if datagram is not None:
                self.deliver(datagram)
            self._rx_expected = seq + 1
            if self._rx_buffer:
                self._drain_rx_buffer()
            else:
                # Inlined self._flush_timer.cancel() — usually idle.
                timer = self._flush_timer
                event = timer._event
                if event is not None:
                    self._sim.cancel(event)
                    timer._event = None
            return
        self._resequence(seq, fragment)

    def _resequence(self, seq: int, fragment: Optional[Fragment]) -> None:
        """Deliver fragments in link-sequence order, flushing stale gaps.

        ``fragment=None`` is a SKIP marker: the slot is consumed with
        nothing delivered.
        """
        if seq < self._rx_expected:
            # A retransmission of something already delivered (its link
            # ACK was lost).  The reassembler's duplicate guard handles
            # any residual effect; nothing to deliver.
            return
        if seq > self._rx_expected:
            if seq not in self._rx_buffer:
                self._rx_buffer[seq] = fragment
            if not self._flush_timer.pending:
                self._flush_timer.start(self._flush_timeout)
            return
        if fragment is not None:
            datagram = self.reassembler.add(fragment)
            if datagram is not None:
                self.deliver(datagram)
        self._rx_expected += 1
        self._drain_rx_buffer()

    def _drain_rx_buffer(self) -> None:
        while self._rx_expected in self._rx_buffer:
            fragment = self._rx_buffer.pop(self._rx_expected)
            if fragment is not None:
                datagram = self.reassembler.add(fragment)
                if datagram is not None:
                    self.deliver(datagram)
            self._rx_expected += 1
        if self._rx_buffer:
            self._flush_timer.restart(self._flush_timeout)
        else:
            self._flush_timer.cancel()

    def _flush_gap(self) -> None:
        """Skip a gap whose frame the far transmitter has given up on."""
        if not self._rx_buffer:
            return
        self._rx_expected = min(self._rx_buffer)
        self._drain_rx_buffer()

