"""TCP sink: the receiving agent on the mobile host.

By default, acknowledges every arriving data segment with a cumulative
ACK (the behaviour of the ns one-way TCP sink the paper used).
Optionally implements RFC 1122 delayed ACKs (every second segment, or
a 200 ms timer) for the ack-clocking ablation.  Out-of-order and
duplicate segments are always acknowledged immediately — duplicate
ACKs drive the sender's fast retransmit and must not be delayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.engine import Simulator, Timer
from repro.net.node import Node
from repro.net.packet import (
    ACK_PACKET_BYTES,
    Address,
    Datagram,
    TcpSegment,
    datagram,
    tcp_ack,
)


@dataclass(slots=True)
class SinkStats:
    """Receive-side counters used for goodput/throughput."""

    segments_received: int = 0
    duplicate_segments: int = 0
    out_of_order_segments: int = 0
    acks_sent: int = 0
    #: User data delivered in order, counted once per segment.
    useful_payload_bytes: int = 0
    #: Same, including the 40 B header — the unit the paper's
    #: throughput numbers are in ("we take into account 40 bytes of
    #: header overhead while measuring connection throughput").
    useful_wire_bytes: int = 0
    first_data_at: Optional[float] = None
    last_data_at: Optional[float] = None
    ecn_marks_seen: int = 0
    delayed_ack_timeouts: int = 0


class TcpSink:
    """Receives TCP segments, returns cumulative ACKs toward ``src``."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        src: Address,
        header_bytes: int = ACK_PACKET_BYTES,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
        delayed_acks: bool = False,
        delack_timeout: float = 0.2,
    ) -> None:
        if header_bytes < ACK_PACKET_BYTES:
            raise ValueError(
                f"header_bytes {header_bytes} is below the {ACK_PACKET_BYTES} B ACK packet"
            )
        if delack_timeout <= 0:
            raise ValueError(f"delack_timeout must be positive, got {delack_timeout}")
        self._sim = sim
        self._node = node
        self.src = src
        self.header_bytes = header_bytes
        #: When set, ``on_complete`` fires once this much in-order user
        #: data has been delivered — needed by split-connection runs,
        #: where the *sender's* completion happens early (the relay
        #: ACKs data the mobile host has not yet received).
        self.expected_bytes = expected_bytes
        self.on_complete = on_complete
        #: Optional per-segment delivery callback ``(seq, payload_bytes)``,
        #: fired once per segment on first in-order delivery — assigned
        #: by latency-measuring workloads.
        self.on_segment: Optional[Callable[[int, int], None]] = None
        self.completed = False
        self.next_expected = 0
        self._buffered: Set[int] = set()
        self._buffered_sizes = {}
        #: Congestion-experienced marks awaiting echo (Floyd '94 ECN):
        #: each marked data packet makes the next ACK carry ecn_echo.
        self._ecn_pending = 0
        self.delayed_acks = delayed_acks
        self.delack_timeout = delack_timeout
        self._ack_held = False
        self._delack_timer = Timer(sim, self._delack_expired, name="delack")
        self.stats = SinkStats()

    def receive(self, datagram: Datagram) -> None:
        """Agent entry point for datagrams addressed to this node."""
        segment = datagram.payload
        if not isinstance(segment, TcpSegment):
            # ACKs/ICMP addressed to the sink are a wiring error.
            raise TypeError(f"sink received non-data payload {segment!r}")
        self.stats.segments_received += 1
        if datagram.ecn_marked:
            self._ecn_pending += 1
            self.stats.ecn_marks_seen += 1
        if self.stats.first_data_at is None:
            self.stats.first_data_at = self._sim.now
        self.stats.last_data_at = self._sim.now

        seq = segment.seq
        in_order = False
        if seq == self.next_expected:
            in_order = True
            self._deliver(segment.payload_bytes)
            if self.on_segment is not None:
                self.on_segment(seq, segment.payload_bytes)
            self.next_expected += 1
            while self.next_expected in self._buffered:
                self._buffered.discard(self.next_expected)
                size = self._buffered_sizes.pop(self.next_expected)
                self._deliver(size)
                if self.on_segment is not None:
                    self.on_segment(self.next_expected, size)
                self.next_expected += 1
        elif seq > self.next_expected:
            if seq not in self._buffered:
                self.stats.out_of_order_segments += 1
                self._buffered.add(seq)
                self._buffered_sizes[seq] = segment.payload_bytes
            else:
                self.stats.duplicate_segments += 1
        else:
            self.stats.duplicate_segments += 1

        if not self.delayed_acks or not in_order:
            # Immediate ACK; duplicates/gaps always ack at once so the
            # sender's dupack machinery keeps working.
            self._cancel_held_ack()
            self._send_ack()
        elif self._ack_held:
            # Second in-order segment: ack now (RFC 1122).
            self._cancel_held_ack()
            self._send_ack()
        else:
            self._ack_held = True
            self._delack_timer.restart(self.delack_timeout)

    def _cancel_held_ack(self) -> None:
        if self._ack_held:
            self._ack_held = False
            self._delack_timer.cancel()

    def _delack_expired(self) -> None:
        self._ack_held = False
        self.stats.delayed_ack_timeouts += 1
        self._send_ack()

    def _deliver(self, payload_bytes: int) -> None:
        self.stats.useful_payload_bytes += payload_bytes
        self.stats.useful_wire_bytes += payload_bytes + self.header_bytes
        if (
            not self.completed
            and self.expected_bytes is not None
            and self.stats.useful_payload_bytes >= self.expected_bytes
        ):
            self.completed = True
            if self.on_complete is not None:
                self.on_complete()

    def _send_ack(self) -> None:
        echo = self._ecn_pending > 0
        if echo:
            self._ecn_pending -= 1
        packet = datagram(
            self._node.name,
            self.src,
            tcp_ack(self.next_expected, echo),
            self.header_bytes,
            self._sim.now,
        )
        self.stats.acks_sent += 1
        self._node.send(packet)
