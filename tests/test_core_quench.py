"""Unit tests for the source-quench baseline (§4.2.2 negative result)."""

from __future__ import annotations

import pytest

from repro.core.quench import (
    QUEUE_THRESHOLD,
    QuenchGenerator,
    install_quench_handler,
)
from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import (
    Datagram,
    Fragment,
    IcmpMessage,
    IcmpType,
    TcpAck,
    TcpSegment,
)
from repro.tcp import TahoeSender, TcpConfig


def data_fragment(seq=3):
    seg = TcpSegment(seq=seq, payload_bytes=536)
    return Fragment(Datagram("FH", "MH", seg, 576), 0, 5, 128)


class TestQuenchGenerator:
    def make_bs(self, sim):
        node = Node("BS")
        sent = []
        node.add_interface(sent.append, "FH")
        return QuenchGenerator(sim, node), sent

    def test_failed_attempt_sends_quench(self, sim):
        gen, sent = self.make_bs(sim)
        gen.on_attempt_failed(data_fragment(), attempt=1)
        assert len(sent) == 1
        assert sent[0].payload.icmp_type is IcmpType.SOURCE_QUENCH

    def test_rate_limited(self, sim):
        gen, sent = self.make_bs(sim)
        frag = data_fragment()
        gen.on_attempt_failed(frag, 1)
        gen.on_attempt_failed(frag, 2)  # same instant: suppressed
        assert len(sent) == 1
        assert gen.quench_suppressed == 1

    def test_rate_limit_expires(self, sim):
        gen, sent = self.make_bs(sim)
        frag = data_fragment()
        gen.on_attempt_failed(frag, 1)
        sim.schedule(1.0, gen.on_attempt_failed, frag, 2)
        sim.run()
        assert len(sent) == 2

    def test_queue_depth_trigger(self, sim):
        gen, sent = self.make_bs(sim)
        gen.note_data_source("FH")
        gen.on_queue_depth(QUEUE_THRESHOLD + 1)
        assert len(sent) == 1

    def test_depth_below_threshold_no_quench(self, sim):
        gen, sent = self.make_bs(sim)
        gen.note_data_source("FH")
        gen.on_queue_depth(QUEUE_THRESHOLD)
        assert sent == []

    def test_depth_without_known_source_no_quench(self, sim):
        gen, sent = self.make_bs(sim)
        gen.on_queue_depth(100)
        assert sent == []


class TestSourceResponse:
    def make_sender(self, sim):
        node = Node("FH")
        node.add_interface(lambda d: None, "MH")
        sender = TahoeSender(
            sim,
            node,
            "MH",
            config=TcpConfig(packet_size=576, window_bytes=4096, transfer_bytes=50 * 536),
        )
        node.attach_agent(sender)
        install_quench_handler(sender)
        return sender

    def ack(self, sender, n):
        sender.receive(Datagram("MH", "FH", TcpAck(n), 40))

    def quench(self, sender):
        sender.receive(Datagram("BS", "FH", IcmpMessage(IcmpType.SOURCE_QUENCH), 40))

    def test_quench_shrinks_window(self, sim):
        sender = self.make_sender(sim)
        sender.start()
        for i in range(1, 5):
            self.ack(sender, i)
        flight = sender.outstanding
        self.quench(sender)
        assert sender.cwnd == 1.0
        assert sender.ssthresh == pytest.approx(max(2.0, flight / 2))
        assert sender.stats.quench_received == 1

    def test_quench_does_not_touch_timer(self, sim):
        """The §4.2.2 point: in-flight packets still time out."""
        sender = self.make_sender(sim)
        sender.start()
        expiry_before = sender.rtx_timer.expiry_time
        self.quench(sender)
        assert sender.rtx_timer.expiry_time == expiry_before

    def test_quench_does_not_retransmit(self, sim):
        sender = self.make_sender(sim)
        sender.start()
        sent_before = sender.stats.segments_sent
        self.quench(sender)
        assert sender.stats.segments_sent == sent_before

    def test_timeout_still_fires_despite_quench(self, sim):
        sender = self.make_sender(sim)
        sender.start()
        sim.schedule_at(1.0, self.quench, sender)
        sim.run(until=4.0)  # initial RTO 3 s
        assert sender.stats.timeouts >= 1
