"""Network substrate: packets, queues, links, and the IP layer.

This package provides everything below the transport layer:

* :mod:`repro.net.packet` — datagrams, TCP segment/ACK payload types,
  ICMP messages (EBSN, source quench), link frames, fragments.
* :mod:`repro.net.queues` — drop-tail FIFO queues with statistics.
* :mod:`repro.net.link` — point-to-point wired links.
* :mod:`repro.net.wireless` — the lossy wireless link (framing
  overhead, channel-model-driven corruption).
* :mod:`repro.net.ip` — static routing, fragmentation to the wireless
  MTU, and all-or-nothing reassembly.
* :mod:`repro.net.node` — hosts and the node/interface wiring.
"""

from repro.net.packet import (
    Address,
    Datagram,
    Fragment,
    IcmpMessage,
    IcmpType,
    LinkFrame,
    PacketType,
    TcpAck,
    TcpSegment,
)
from repro.net.queues import DropTailQueue, QueueStats
from repro.net.link import WiredLink
from repro.net.wireless import WirelessLink, WirelessLinkConfig
from repro.net.ip import Fragmenter, Reassembler, RoutingTable
from repro.net.node import Node

__all__ = [
    "Address",
    "Datagram",
    "Fragment",
    "IcmpMessage",
    "IcmpType",
    "LinkFrame",
    "PacketType",
    "TcpAck",
    "TcpSegment",
    "DropTailQueue",
    "QueueStats",
    "WiredLink",
    "WirelessLink",
    "WirelessLinkConfig",
    "Fragmenter",
    "Reassembler",
    "RoutingTable",
    "Node",
]
