"""Split-connection (I-TCP style) baseline — the §2 approach.

Bakre & Badrinath's I-TCP and Yavatkar & Bhagwat's approach split the
FH↔MH connection at the base station into two independent TCP
connections: FH↔BS over the wired network and BS↔MH over the wireless
hop.  The base station acknowledges data to the fixed host as soon as
it arrives — *before* the mobile host has it — which is the paper's
end-to-end-semantics criticism, and it must hold per-connection state
(the relay buffer, a whole second TCP sender) — the paper's state-
maintenance criticism.

:class:`SplitRelay` is the base-station half: the wired-side receiver
(acks toward the fixed host) glued to a wireless-side
:class:`~repro.tcp.messages.MessageSender` that forwards each in-order
wired segment as one segment of its own.
"""

from __future__ import annotations

from typing import Optional

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import (
    ACK_PACKET_BYTES,
    Address,
    Datagram,
    TcpAck,
    TcpSegment,
)
from repro.tcp.messages import MessageSender
from repro.tcp.tahoe import TcpConfig


class SplitRelay:
    """The base-station half of a split connection.

    Wired side: behaves as the fixed host's receiver — cumulative ACKs
    are returned immediately (the end-to-end violation).  Wireless
    side: a fresh Tahoe connection from the BS to the mobile host,
    optionally with its own packet size (a split connection may pick a
    wireless-friendly segment size independent of the wired one), as
    long as it holds a wired segment's payload: each one the relay
    accepts in order goes out at once as one wireless segment.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        wired_peer: Address = "FH",
        mobile: Address = "MH",
        wireless_packet_size: int = TcpConfig.packet_size,
        window_bytes: int = TcpConfig.window_bytes,
        transfer_bytes: Optional[int] = None,
        clock_granularity: float = TcpConfig.clock_granularity,
    ) -> None:
        self._sim = sim
        self._node = node
        self.wired_peer = wired_peer
        self.mobile = mobile
        #: Total bytes expected from the wired side (close the wireless
        #: stream when they have all arrived); None = never closes.
        self.transfer_bytes = transfer_bytes

        self.wireless_sender = MessageSender(
            sim,
            node,
            mobile,
            config=TcpConfig(
                packet_size=wireless_packet_size,
                window_bytes=window_bytes,
                transfer_bytes=1,  # placeholder; MessageSender resets totals
                clock_granularity=clock_granularity,
            ),
        )
        self.wireless_sender.start()

        # Wired-side receiver state (segment-numbered, like TcpSink).
        self.next_expected = 0
        self._buffered_sizes: dict[int, int] = {}
        self.bytes_accepted = 0
        #: ``bytes_accepted`` after each wireless segment: the bytes
        #: the MH has acknowledged, indexed by the sender's ``snd_una``.
        self._accepted_through = [0]
        self.acks_sent = 0
        self.buffer_occupancy_peak = 0

    # -- wired side -----------------------------------------------------

    def on_wired_data(self, datagram: Datagram) -> None:
        """A data packet from the fixed host arrived at the BS."""
        segment = datagram.payload
        if not isinstance(segment, TcpSegment):
            raise TypeError(f"relay got non-data payload {segment!r}")
        seq = segment.seq
        if seq == self.next_expected:
            self._accept(segment.payload_bytes)
            self.next_expected += 1
            while self.next_expected in self._buffered_sizes:
                self._accept(self._buffered_sizes.pop(self.next_expected))
                self.next_expected += 1
        elif seq > self.next_expected:
            self._buffered_sizes.setdefault(seq, segment.payload_bytes)
        self._ack_wired()

    def _accept(self, payload_bytes: int) -> None:
        self.bytes_accepted += payload_bytes
        self._accepted_through.append(self.bytes_accepted)
        self.wireless_sender.send_message(payload_bytes)
        backlog = (
            self.bytes_accepted
            - self._accepted_through[self.wireless_sender.snd_una]
        )
        self.buffer_occupancy_peak = max(self.buffer_occupancy_peak, backlog)
        if (
            self.transfer_bytes is not None
            and self.bytes_accepted >= self.transfer_bytes
            and not self.wireless_sender.closed
        ):
            self.wireless_sender.close()

    def _ack_wired(self) -> None:
        ack = Datagram(
            src=self._node.name,
            dst=self.wired_peer,
            payload=TcpAck(ack_seq=self.next_expected),
            size_bytes=ACK_PACKET_BYTES,
        )
        self.acks_sent += 1
        self._node.send(ack)

    # -- wireless side ---------------------------------------------------

    def on_wireless_ack(self, datagram: Datagram) -> None:
        """An ACK from the mobile host for the BS↔MH connection."""
        self.wireless_sender.receive(datagram)

    def receive(self, datagram: Datagram) -> None:
        """Agent entry point: dispatch by payload type."""
        if isinstance(datagram.payload, TcpSegment):
            self.on_wired_data(datagram)
        elif isinstance(datagram.payload, TcpAck):
            self.on_wireless_ack(datagram)
        else:
            # ICMP addressed to the BS itself — nothing to do.
            pass
