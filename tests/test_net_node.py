"""Unit tests for nodes."""

from __future__ import annotations

import pytest

from repro.net.node import Node
from repro.net.packet import Datagram, TcpSegment


def make_datagram(src="FH", dst="MH"):
    return Datagram(src, dst, TcpSegment(0, 536), 576)


class RecordingAgent:
    def __init__(self):
        self.received = []

    def receive(self, datagram):
        self.received.append(datagram)


class TestNode:
    def test_local_delivery_to_agent(self):
        node = Node("MH")
        agent = RecordingAgent()
        node.attach_agent(agent)
        node.receive(make_datagram(dst="MH"))
        assert len(agent.received) == 1

    def test_local_delivery_without_agent_raises(self):
        with pytest.raises(RuntimeError):
            Node("MH").receive(make_datagram(dst="MH"))

    def test_forwarding(self):
        node = Node("BS")
        out = []
        node.add_interface(out.append, "MH")
        node.receive(make_datagram(dst="MH"))
        assert len(out) == 1

    def test_add_interface_installs_routes(self):
        node = Node("FH")
        out = []
        node.add_interface(out.append, "BS", "MH")
        node.send(make_datagram(dst="BS"))
        node.send(make_datagram(dst="MH"))
        assert len(out) == 2

    def test_unroutable_forward_raises(self):
        node = Node("BS")
        with pytest.raises(KeyError):
            node.receive(make_datagram(dst="nowhere"))

    def test_send_originates_via_routing(self):
        node = Node("FH")
        out = []
        node.add_interface(out.append, "MH")
        node.send(make_datagram())
        assert len(out) == 1
