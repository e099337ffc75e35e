"""ICMP Source Quench feedback — the paper's §4.2.2 negative result.

The base station can be configured as a gateway that sends RFC 792
source-quench messages when packets pile up for the wireless link (or
when it anticipates drops).  The TCP source reacts per RFC 1122
§4.2.3.9: trigger slow start as if a retransmission timeout had
occurred — shrink the window — but, crucially, *nothing touches the
retransmission timer*.  Packets already in flight when the link went
bad still time out, which is why the paper found quench unable to
deliver the improvement EBSN does.
"""

from __future__ import annotations

from typing import Callable

from repro.engine import Simulator
from repro.linklayer.port import FeedbackHooks
from repro.net.node import Node
from repro.net.packet import (
    ICMP_PACKET_BYTES,
    Datagram,
    Fragment,
    IcmpMessage,
    IcmpType,
    PacketType,
    TcpSegment,
)
from repro.tcp.tahoe import TahoeSender

#: Transmit-queue depth (frames) above which the base station quenches
#: the source in anticipation of drops.
QUEUE_THRESHOLD = 8
#: Minimum gap (s) between two quenches to one source.
MIN_INTERVAL = 0.5


class QuenchGenerator(FeedbackHooks):
    """Base-station hook that emits source-quench messages.

    Two triggers, both from the paper's discussion:

    * the transmit queue for the wireless link exceeds
      :data:`QUEUE_THRESHOLD` frames (anticipatory congestion signal);
    * a link-level attempt failed (the link is visibly struggling).

    Quenches are rate-limited to one per :data:`MIN_INTERVAL` seconds
    per source — RFC-era gateways did the same to avoid quench storms.

    The base station routes its datagrams for the mobile host through
    :meth:`on_wired_data`, which notes each data packet's source and
    hands the packet to ``send_wireless``: the wireless port's
    ``send_datagram``, set once that port (which takes this generator
    as its feedback) exists.
    """

    def __init__(self, sim: Simulator, node: Node) -> None:
        self._sim = sim
        self._node = node
        self.quench_sent = 0
        self.quench_suppressed = 0
        self._last_sent: dict[str, float] = {}
        self._last_data_source: str | None = None
        self.send_wireless: Callable[[Datagram], None] | None = None

    def on_attempt_failed(self, fragment: Fragment, attempt: int) -> None:
        """Quench the source of a data packet the link is struggling with."""
        datagram = fragment.datagram
        if datagram.packet_type is PacketType.DATA:
            self._quench(datagram.src, datagram)

    def on_queue_depth(self, depth: int) -> None:
        """Anticipatory quench when the transmit queue builds up."""
        if depth > QUEUE_THRESHOLD and self._last_data_source is not None:
            self._quench(self._last_data_source, None)

    def note_data_source(self, src: str) -> None:
        """Remember the source feeding the wireless queue (for depth-triggered quench)."""
        self._last_data_source = src

    def on_wired_data(self, datagram: Datagram) -> None:
        """Forward a datagram toward the mobile host, noting its source
        first if it carries data."""
        if isinstance(datagram.payload, TcpSegment):
            self.note_data_source(datagram.src)
        self.send_wireless(datagram)

    def _quench(self, dst: str, datagram: Datagram | None) -> None:
        last = self._last_sent.get(dst)
        if last is not None and self._sim.now - last < MIN_INTERVAL:
            self.quench_suppressed += 1
            return
        about_seq = None
        if datagram is not None and isinstance(datagram.payload, TcpSegment):
            about_seq = datagram.payload.seq
        quench = Datagram(
            src=self._node.name,
            dst=dst,
            payload=IcmpMessage(IcmpType.SOURCE_QUENCH, about_seq=about_seq),
            size_bytes=ICMP_PACKET_BYTES,
        )
        self._last_sent[dst] = self._sim.now
        self.quench_sent += 1
        self._node.send(quench)


def install_quench_handler(sender: TahoeSender) -> None:
    """Make a TCP source react to source quench per RFC 1122.

    ssthresh ← max(2, flight/2), cwnd ← 1 (slow start as if a timeout
    had occurred), but no retransmission and — the point of §4.2.2 —
    no retransmission-timer change.
    """
    previous = sender.icmp_handler

    def handler(snd: TahoeSender, message: IcmpMessage) -> None:
        if message.icmp_type is IcmpType.SOURCE_QUENCH:
            snd.stats.quench_received += 1
            flight = max(snd.outstanding, 1)
            snd.ssthresh = max(2.0, min(snd.cwnd, float(flight)) / 2.0)
            snd.cwnd = 1.0
            return
        if previous is not None:
            previous(snd, message)

    sender.icmp_handler = handler
