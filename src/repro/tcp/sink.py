"""TCP sink: the receiving agent on the mobile host.

Acknowledges every arriving data segment at once with a cumulative
ACK, like the ns one-way TCP sink the paper used.  Out-of-order and
duplicate segments are acknowledged too: their duplicate ACKs drive
the sender's fast retransmit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import (
    ACK_PACKET_BYTES,
    Address,
    Datagram,
    TCP_IP_HEADER_BYTES,
    TcpSegment,
    datagram,
    tcp_ack,
)


@dataclass(slots=True)
class SinkStats:
    """Receive-side counters used for goodput/throughput."""

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


class TcpSink:
    """Receives TCP segments, returns cumulative ACKs toward ``src``."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        src: Address,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        self._sim = sim
        self._node = node
        self.src = src
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
        #: Out-of-order segments held for in-order delivery: seq -> payload bytes.
        self._buffered: Dict[int, int] = {}
        #: Congestion-experienced marks awaiting echo (Floyd '94 ECN):
        #: each marked data packet makes the next ACK carry ecn_echo.
        self._ecn_pending = 0
        self.stats = SinkStats()

    def receive(self, datagram: Datagram) -> None:
        """Agent entry point for datagrams addressed to this node."""
        segment = datagram.payload
        if not isinstance(segment, TcpSegment):
            # ACKs/ICMP addressed to the sink are a wiring error.
            raise TypeError(f"sink received non-data payload {segment!r}")
        stats = self.stats
        if datagram.ecn_marked:
            self._ecn_pending += 1
            stats.ecn_marks_seen += 1
        now = self._sim._now
        if stats.first_data_at is None:
            stats.first_data_at = now
        stats.last_data_at = now

        seq = segment.seq
        if seq == self.next_expected:
            self._deliver(segment.payload_bytes)
            if self.on_segment is not None:
                self.on_segment(seq, segment.payload_bytes)
            self.next_expected += 1
            while self.next_expected in self._buffered:
                size = self._buffered.pop(self.next_expected)
                self._deliver(size)
                if self.on_segment is not None:
                    self.on_segment(self.next_expected, size)
                self.next_expected += 1
        elif seq > self.next_expected:
            if seq not in self._buffered:
                self.stats.out_of_order_segments += 1
                self._buffered[seq] = segment.payload_bytes
            else:
                self.stats.duplicate_segments += 1
        else:
            self.stats.duplicate_segments += 1
        self._send_ack()

    def _deliver(self, payload_bytes: int) -> None:
        self.stats.useful_payload_bytes += payload_bytes
        self.stats.useful_wire_bytes += payload_bytes + TCP_IP_HEADER_BYTES
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
            ACK_PACKET_BYTES,
        )
        self.stats.acks_sent += 1
        self._node.send(packet)
