"""Unit tests for the TCP sink."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment
from repro.tcp import TcpSink


class Harness:
    def __init__(self, sim):
        self.node = Node("MH")
        self.acks = []
        self.node.add_interface(self.acks.append, "FH")
        self.sink = TcpSink(sim, self.node, "FH")
        self.node.attach_agent(self.sink)

    def data(self, seq, payload=536):
        seg = TcpSegment(seq=seq, payload_bytes=payload)
        self.sink.receive(Datagram("FH", "MH", seg, payload + 40))

    def ack_seqs(self):
        return [d.payload.ack_seq for d in self.acks]


class TestInOrder:
    def test_acks_every_segment(self, sim):
        h = Harness(sim)
        for i in range(3):
            h.data(i)
        assert h.ack_seqs() == [1, 2, 3]

    def test_delivered_bytes(self, sim):
        h = Harness(sim)
        h.data(0, payload=536)
        h.data(1, payload=100)
        assert h.sink.stats.useful_payload_bytes == 636
        assert h.sink.stats.useful_wire_bytes == 636 + 80

    def test_timestamps(self, sim):
        h = Harness(sim)
        sim.schedule(1.0, h.data, 0)
        sim.schedule(2.0, h.data, 1)
        sim.run()
        assert h.sink.stats.first_data_at == 1.0
        assert h.sink.stats.last_data_at == 2.0


class TestOutOfOrder:
    def test_gap_generates_dupacks(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(2)
        h.data(3)
        assert h.ack_seqs() == [1, 1, 1]
        assert h.sink.stats.out_of_order_segments == 2

    def test_hole_fill_releases_buffered(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(2)
        h.data(3)
        h.data(1)  # fills the hole
        assert h.ack_seqs() == [1, 1, 1, 4]
        assert h.sink.stats.useful_payload_bytes == 4 * 536

    def test_buffered_payload_counted_once(self, sim):
        h = Harness(sim)
        h.data(1)
        h.data(1)  # duplicate of buffered
        h.data(0)
        assert h.sink.stats.useful_payload_bytes == 2 * 536
        assert h.sink.stats.duplicate_segments == 1

    def test_below_window_duplicate(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(0)
        assert h.ack_seqs() == [1, 1]
        assert h.sink.stats.duplicate_segments == 1

    def test_duplicate_not_double_delivered(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(0)
        assert h.sink.stats.useful_payload_bytes == 536


class TestErrors:
    def test_non_data_payload_rejected(self, sim):
        h = Harness(sim)
        with pytest.raises(TypeError):
            h.sink.receive(Datagram("FH", "MH", TcpAck(1), 40))

    def test_ack_counter(self, sim):
        h = Harness(sim)
        for i in range(5):
            h.data(i)
        assert h.sink.stats.acks_sent == 5

